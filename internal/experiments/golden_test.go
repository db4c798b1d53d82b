package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fattree/internal/metrics"
)

// TestGoldenTables pins the quick-size, seed-1 tables of the experiments
// that drive the Section II retry protocol (online, scheduled, randomized
// and open-loop delivery) byte for byte. The testdata files are the output of
//
//	go run ./cmd/ftbench -quick -seed 1 -run <ID> -json > internal/experiments/testdata/<ID>.json
//
// and the test renders each experiment with the same JSON shape and encoder
// settings as ftbench -json, so a refactor of the delivery loops that changes
// any cycle count, drop count or latency shows up here as a diff.
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{"E13", "E17", "E19", "E20", "E21", "E25", "A2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not found", id)
			}
			type jsonExperiment struct {
				ID     string           `json:"id"`
				Title  string           `json:"title"`
				Source string           `json:"source"`
				Tables []*metrics.Table `json:"tables"`
			}
			out := []jsonExperiment{{
				ID: e.ID, Title: e.Title, Source: e.Source, Tables: e.Run(Options{Quick: true, Seed: 1}),
			}}
			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s tables differ from testdata/%s.json:\ngot:\n%s", id, id, got.Bytes())
			}
		})
	}
}
