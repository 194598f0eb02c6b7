package evalstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testKey(i uint64) Key { return Key{Topo: 0x1000 + i, Cand: 0x2000 + i, Spec: 0x3000} }

func testMeas(i uint64) Measurements {
	var m Measurements
	for j := range m {
		m[j] = float64(i)*100 + float64(j) + 0.25
	}
	return m
}

func TestPutGetAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.store")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := uint64(0); i < n; i++ {
		if err := st.Put(testKey(i), testMeas(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate put is a no-op, not a duplicate record.
	if err := st.Put(testKey(3), testMeas(3)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != n || st2.Recovered() != 0 {
		t.Fatalf("reopen: Len = %d (want %d), Recovered = %d (want 0)", st2.Len(), n, st2.Recovered())
	}
	for i := uint64(0); i < n; i++ {
		m, ok := st2.Get(testKey(i))
		if !ok || m != testMeas(i) {
			t.Fatalf("key %d: got %v ok=%v, want %v", i, m, ok, testMeas(i))
		}
	}
	if _, ok := st2.Get(Key{Topo: 99}); ok {
		t.Fatal("Get of an unknown key reported a hit")
	}
}

// A crash mid-append leaves a torn tail record: Open must keep every
// record before the tear, truncate the tear away, and leave the file
// appendable — the crash-recovery contract.
func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.store")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := st.Put(testKey(i), testMeas(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, 50, 103} { // mid-length, mid-payload, mid-crc
		bad := filepath.Join(t.TempDir(), "torn.store")
		if err := os.WriteFile(bad, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(bad)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st2.Len() != 9 || st2.Recovered() == 0 {
			t.Fatalf("cut %d: Len = %d (want 9), Recovered = %d (want > 0)", cut, st2.Len(), st2.Recovered())
		}
		// The truncated store must accept appends and reopen cleanly.
		if err := st2.Put(testKey(100), testMeas(100)); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		st3, err := Open(bad)
		if err != nil {
			t.Fatal(err)
		}
		if st3.Len() != 10 || st3.Recovered() != 0 {
			t.Fatalf("cut %d reopen: Len = %d (want 10), Recovered = %d (want 0)", cut, st3.Len(), st3.Recovered())
		}
		st3.Close()
	}
}

// A flipped byte inside a record body fails that record's CRC; the store
// keeps everything before it (append-only logs cannot skip over a bad
// record — the tear boundary is authoritative).
func TestCorruptRecordTruncatesFromThere(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.store")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := st.Put(testKey(i), testMeas(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recSize := (len(data) - 8) / 10
	data[8+5*recSize+10] ^= 0x01 // corrupt record 5's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 5 || st2.Recovered() != 5*recSize {
		t.Fatalf("Len = %d (want 5), Recovered = %d (want %d)", st2.Len(), st2.Recovered(), 5*recSize)
	}
}

// A quarantine tombstone survives reopening, is distinct from a
// measurement (Get misses it) and is written once however often the
// candidate is quarantined.
func TestQuarantineTombstoneAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.store")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testKey(0), testMeas(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Quarantine(testKey(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 || st2.Recovered() != 0 {
		t.Fatalf("reopen: Len = %d (want 2), Recovered = %d (want 0)", st2.Len(), st2.Recovered())
	}
	if !st2.Quarantined(testKey(1)) || st2.Quarantined(testKey(0)) {
		t.Fatal("tombstone not replayed for exactly the quarantined key")
	}
	if _, ok := st2.Get(testKey(1)); ok {
		t.Fatal("Get served measurements for a quarantined key")
	}
	if m, ok := st2.Get(testKey(0)); !ok || m != testMeas(0) {
		t.Fatalf("measurement beside the tombstone: got %v ok=%v", m, ok)
	}
}

// A store written before quarantine tombstones existed still opens with
// every record intact: testdata/divevst1.store holds testKey(0..2).
func TestOpensPreTombstoneStore(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "divevst1.store"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 3 || st.Recovered() != 0 {
		t.Fatalf("Len = %d (want 3), Recovered = %d (want 0)", st.Len(), st.Recovered())
	}
	for i := uint64(0); i < 3; i++ {
		if m, ok := st.Get(testKey(i)); !ok || m != testMeas(i) {
			t.Fatalf("key %d: got %v ok=%v, want %v", i, m, ok, testMeas(i))
		}
	}
}

// A file that is not an evalstore must be refused, not truncated to
// nothing — silently destroying a foreign file would be data loss.
func TestForeignFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("do not eat"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrStore) {
		t.Fatalf("err = %v, want ErrStore", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "do not eat" {
		t.Fatal("Open modified a foreign file while refusing it")
	}
}

// Open must never panic, whatever bytes are on disk, and recovery must
// be idempotent: reopening a recovered store finds nothing left to
// truncate. Runs under plain `go test` via the seed corpus.
func FuzzOpen(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.store")
	st, err := Open(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := st.Put(testKey(i), testMeas(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Quarantine(testKey(3)); err != nil {
		f.Fatal(err)
	}
	st.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add([]byte("DIVEVST1garbage after the header"))
	f.Add([]byte("not a store at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			return // refused cleanly
		}
		n, rec := st.Len(), st.Recovered()
		st.Close()
		st2, err := Open(path)
		if err != nil {
			t.Fatalf("recovered store failed to reopen: %v", err)
		}
		defer st2.Close()
		if st2.Len() != n || st2.Recovered() != 0 {
			t.Fatalf("recovery not idempotent: first open (len %d, recovered %d), reopen (len %d, recovered %d)",
				n, rec, st2.Len(), st2.Recovered())
		}
	})
}
