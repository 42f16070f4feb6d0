package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSimulatorGoldens pins the quick-mode tables of the virtual-time
// experiments A6–A10 byte for byte: any change to arrivals, batch
// sealing, executor choice, faults, stealing, the admission door or the
// journey recorder shows up as a golden diff naming the cells it moved.
// After an intended change, regenerate each golden from the repo root
// with (shown for a6; likewise a7, a8, a9 and a10):
//
//	go run ./cmd/phibench -exp a6 -quick -journeys | sed -n '/^A6 /,/^$/p' > internal/bench/testdata/a6.quick.golden
func TestSimulatorGoldens(t *testing.T) {
	opts := Options{Quick: true, Seed: 1, Journeys: true}
	for _, id := range []string{"a6", "a7", "a8", "a9", "a10"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var got bytes.Buffer
			e.Run(opts).Render(&got)
			path := filepath.Join("testdata", id+".quick.golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s drifted from %s:\n--- got\n%s--- want\n%s", id, path, got.Bytes(), want)
			}
		})
	}
}
