package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestTimelineSampleAndStats(t *testing.T) {
	tl := NewTimeline("q", "util")
	tl.Sample(0, []float64{0, 0})
	tl.Sample(1, []float64{2, 0.5})
	tl.Sample(2, []float64{4, 1})
	if tl.Len() != 3 {
		t.Fatalf("len = %d, want 3", tl.Len())
	}
	if got := tl.Mean("q"); got != 2 {
		t.Fatalf("mean(q) = %g, want 2", got)
	}
	if got := tl.Max("q"); got != 4 {
		t.Fatalf("max(q) = %g, want 4", got)
	}
	if got := tl.Values("util"); len(got) != 3 || got[2] != 1 {
		t.Fatalf("values(util) = %v", got)
	}
	if !math.IsNaN(tl.Mean("nope")) {
		t.Fatal("unknown series must give NaN")
	}
}

func TestTimelineRowReuseIsAllocationFriendly(t *testing.T) {
	tl := NewTimeline("a", "b")
	row := tl.Row()
	row[0], row[1] = 1, 2
	tl.Sample(0, row)
	row[0], row[1] = 3, 4
	tl.Sample(1, row)
	// The stored columns must not alias the scratch row.
	if vs := tl.Values("a"); vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("series a = %v, want [1 3]", vs)
	}
}

func TestTimelinePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no series":  func() { NewTimeline() },
		"dup series": func() { NewTimeline("x", "x") },
		"bad width":  func() { NewTimeline("x").Sample(0, []float64{1, 2}) },
		"backwards": func() {
			tl := NewTimeline("x")
			tl.Sample(1, []float64{0})
			tl.Sample(0, []float64{0})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTimelineCSVAndJSON(t *testing.T) {
	tl := NewTimeline("q", "p")
	tl.Sample(0.5, []float64{1, 100})
	tl.Sample(1.5, []float64{2, 200})

	var csv bytes.Buffer
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "time,q,p" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 3 || lines[1] != "0.5,1,100" {
		t.Fatalf("csv rows = %v", lines[1:])
	}

	raw, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Times  []float64 `json:"times"`
		Series []struct {
			Name   string    `json:"name"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Times) != 2 || len(doc.Series) != 2 || doc.Series[1].Name != "p" || doc.Series[1].Values[1] != 200 {
		t.Fatalf("json round-trip = %+v", doc)
	}
}

func TestNilTimelineIsInert(t *testing.T) {
	var tl *Timeline
	tl.Sample(0, []float64{1})
	if tl.Len() != 0 || tl.Names() != nil || tl.Values("x") != nil || tl.Row() != nil {
		t.Fatal("nil timeline must be inert")
	}
	if !math.IsNaN(tl.Mean("x")) || !math.IsNaN(tl.Max("x")) {
		t.Fatal("nil timeline stats must be NaN")
	}
}
