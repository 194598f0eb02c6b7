// Fixture for the durableerr analyzer, type-checked under the virtual
// path diversify/internal/optimize (durability-scoped).
package optimize

import (
	"os"

	"diversify/internal/evalstore"
)

func renameDiscarded(a, b string) {
	os.Rename(a, b) // want "result of durable write os.Rename is discarded"
}

func renameBlank(a, b string) {
	_ = os.Rename(a, b) // want "assigned to _"
}

func renameChecked(a, b string) error {
	return os.Rename(a, b)
}

func writeFileDiscarded(path string, data []byte) {
	os.WriteFile(path, data, 0o644) // want "result of durable write os.WriteFile is discarded"
}

func syncDeferred(f *os.File) {
	defer f.Sync() // want "deferred durable write"
}

func syncAllowed(f *os.File) {
	f.Sync() //diversify:allow-discard fixture: audited best-effort sync
}

func syncChecked(f *os.File) error {
	return f.Sync()
}

func putDiscarded(s *evalstore.Store, k evalstore.Key, m evalstore.Measurements) {
	s.Put(k, m) // want "Put is discarded"
}

func putChecked(s *evalstore.Store, k evalstore.Key, m evalstore.Measurements) error {
	return s.Put(k, m)
}

func quarantineDiscarded(s *evalstore.Store, k evalstore.Key) {
	_ = s.Quarantine(k) // want "Quarantine assigned to _"
}

func closeIsFine(f *os.File) {
	f.Close()
}
