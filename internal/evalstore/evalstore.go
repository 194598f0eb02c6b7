// Package evalstore is a crash-safe, append-only durable store for
// completed Monte-Carlo evaluation measurements.
//
// The optimizer's in-memory memo cache dies with the process; the store
// is its disk-backed complement for warm-starting re-optimizations: a
// measurement is a pure function of (topology, candidate, evaluation
// spec), so a re-run under a tweaked budget, objective or strategy can
// re-use every measurement whose key matches instead of re-simulating
// hundreds of replications per candidate.
//
// The store is also the optimizer's crash-recovery state: every search is
// a deterministic function of its problem and seed, so re-running an
// interrupted command against the same store replays the search with
// each pre-crash evaluation served from disk, and the result is
// byte-identical to an uninterrupted run.
//
// The file layout is a header followed by self-checking records:
//
//	"DIVEVST1" | record*        record = len u32 | payload | crc32 u32
//
// A payload is a key followed by its measurements, or the key alone: a
// quarantine tombstone for a candidate whose evaluation panicked
// repeatedly, so a re-run does not replay the panics.
//
// Appends are atomic at the record level: a crash mid-append leaves a
// torn tail record, which Open detects (length or CRC mismatch) and
// truncates away — everything before the tear survives. Every syncEvery
// appends are fsynced, bounding what a power loss can take. No
// compaction, no index file, no dependencies: the whole store replays
// into memory on Open.
package evalstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// ErrStore reports an unusable store file (bad header — not created by
// this package).
var ErrStore = errors.New("evalstore: bad store file")

// magic identifies store files ("DIVEVST" + format version).
var magic = [8]byte{'D', 'I', 'V', 'E', 'V', 'S', 'T', '1'}

// NumMeasurements is how many scalar measurements one record carries.
const NumMeasurements = 10

// Measurements are the raw aggregated indicators of one completed
// evaluation, in the optimizer's fixed serialization order. Cost and
// the scalar objective value are deliberately NOT stored: both derive
// from the re-run's own cost model and objective, which is exactly what
// a warm-started re-optimization wants to change.
type Measurements [NumMeasurements]float64

// Key identifies one evaluation: the topology fingerprint, the
// candidate fingerprint (placement overlay × rotation schedule) and the
// evaluation-spec digest (catalog, threat profile, horizon, replication
// count, seed — everything else that shapes the measured numbers).
type Key struct {
	Topo uint64
	Cand uint64
	Spec uint64
}

// keySize is a tombstone payload (the 3 key words alone); payloadSize
// is a measurement payload: the key words + measurements.
const (
	keySize     = 3 * 8
	payloadSize = keySize + NumMeasurements*8
)

// syncEvery is the group-commit cadence: Put and Quarantine fsync the
// file after every syncEvery-th append (Close syncs the rest).
const syncEvery = 32

// Store is an open durable evaluation store. Safe for concurrent use.
type Store struct {
	mu sync.Mutex
	// path is set once in Open and immutable after, so it needs no lock.
	path      string
	f         *os.File             //diversify:guardedby mu
	mem       map[Key]Measurements //diversify:guardedby mu
	quar      map[Key]bool         //diversify:guardedby mu
	appends   int                  //diversify:guardedby mu
	recovered int                  //diversify:guardedby mu
}

// Open opens (or creates) the store at path, replaying every intact
// record into memory. A torn or corrupt tail — the signature of a crash
// mid-append or a partial disk — is truncated away and counted in
// Recovered; only a file that does not start with the store header is
// refused outright.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st := &Store{f: f, path: path, mem: map[Key]Measurements{}, quar: map[Key]bool{}}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		if _, err := f.Write(magic[:]); err != nil {
			f.Close()
			return nil, err
		}
		return st, nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || hdr != magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s has no evalstore header", ErrStore, path)
	}
	// Replay records until the first tear, then truncate to the last
	// good boundary so subsequent appends extend a consistent file.
	good := int64(len(magic))
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	off := 0
	for {
		rec, n := decodeRecord(data[off:])
		if n == 0 {
			break
		}
		if rec.quarantined {
			st.quar[rec.key] = true
		} else {
			st.mem[rec.key] = rec.m
		}
		off += n
		good += int64(n)
	}
	if off != len(data) {
		st.recovered = len(data) - off
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// record is one decoded store entry.
type record struct {
	key         Key
	m           Measurements
	quarantined bool
}

// decodeRecord parses one length-prefixed record from b, returning the
// consumed byte count (0 = torn, short or corrupt — stop here).
func decodeRecord(b []byte) (record, int) {
	var rec record
	if len(b) < 4 {
		return rec, 0
	}
	le := binary.LittleEndian
	n := int(le.Uint32(b))
	// Future format versions may grow the payload; anything shorter than
	// the current payload other than a tombstone, or absurdly long, is a
	// tear.
	if (n < payloadSize && n != keySize) || n > 1<<20 || len(b) < 4+n+4 {
		return rec, 0
	}
	payload := b[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != le.Uint32(b[4+n:]) {
		return rec, 0
	}
	rec.key.Topo = le.Uint64(payload[0:])
	rec.key.Cand = le.Uint64(payload[8:])
	rec.key.Spec = le.Uint64(payload[16:])
	if n == keySize {
		rec.quarantined = true
		return rec, 4 + n + 4
	}
	for i := 0; i < NumMeasurements; i++ {
		rec.m[i] = math.Float64frombits(le.Uint64(payload[24+8*i:]))
	}
	return rec, 4 + n + 4
}

// Get returns the stored measurements for key, if any.
func (s *Store) Get(key Key) (Measurements, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.mem[key]
	return m, ok
}

// Quarantined reports whether key holds a quarantine tombstone.
func (s *Store) Quarantined(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quar[key]
}

// Put appends one completed evaluation. Re-putting an existing key is a
// cheap no-op (the measurement is a pure function of the key).
func (s *Store) Put(key Key, m Measurements) error { return s.add(key, m[:]) }

// Quarantine appends a tombstone for a candidate whose evaluation
// panicked repeatedly. Re-quarantining a key is a no-op.
func (s *Store) Quarantine(key Key) error { return s.add(key, nil) }

// add appends one record — key plus measurements, or the key alone
// (m == nil) for a tombstone — and fsyncs after every syncEvery-th
// append.
func (s *Store) add(key Key, m []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[key]; (ok && m != nil) || (s.quar[key] && m == nil) {
		return nil
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, 4+payloadSize+4)
	buf = le.AppendUint32(buf, uint32(keySize+8*len(m)))
	buf = le.AppendUint64(buf, key.Topo)
	buf = le.AppendUint64(buf, key.Cand)
	buf = le.AppendUint64(buf, key.Spec)
	for _, f := range m {
		buf = le.AppendUint64(buf, math.Float64bits(f))
	}
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	if _, err := s.f.Write(buf); err != nil {
		return err
	}
	if m != nil {
		s.mem[key] = Measurements(m)
	} else {
		s.quar[key] = true
	}
	s.appends++
	if s.appends%syncEvery == 0 {
		return s.f.Sync()
	}
	return nil
}

// Len reports how many distinct evaluations the store holds, quarantine
// tombstones included.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + len(s.quar)
}

// Path reports the file path the store was opened at.
func (s *Store) Path() string { return s.path }

// Recovered reports how many trailing bytes Open truncated away as a
// torn or corrupt tail (0 for a clean file).
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Close syncs and closes the backing file. The Store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
