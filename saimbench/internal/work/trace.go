package work

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of a traced run. Spans of one solve or one
// request share Group; Parent indexes the enclosing span, -1 for a root.
// Times are milliseconds since the recorder started.
type Span struct {
	Name   string  `json:"name"`
	Group  string  `json:"group"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// Recorder keeps a traced run's spans in memory until the run writes them
// out. A nil *Recorder records nothing: the untraced run passes nil.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewRecorder starts a recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Add records a span and returns its index, the parent handle of its
// children (-1 on a nil recorder).
func (r *Recorder) Add(parent int, group, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Group: group, Parent: parent,
		Start: millis(start.Sub(r.t0)), End: millis(end.Sub(r.t0))})
	return len(r.spans) - 1
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes returns every span's self time: its duration minus the part
// of its interval its children cover.
func selfTimes(spans []Span) []float64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		var iv [][2]float64
		for _, k := range kids[i] {
			lo, hi := math.Max(spans[k].Start, s.Start), math.Min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, math.Inf(-1)
		for _, v := range iv {
			if lo := math.Max(v[0], reach); v[1] > lo {
				covered += v[1] - lo
			}
			reach = math.Max(reach, v[1])
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// SelfTimes sums the self time of every span name, in milliseconds.
func SelfTimes(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += t
	}
	return out
}

// Unexplained is the share (0 to 1) of the roots' time that no layer
// accounts for: the self time of every span that has children — time
// inside a parent that none of the spans beneath it covers — over the
// roots' total duration. A leaf span is layer time.
func Unexplained(spans []Span) float64 {
	hasKids := make([]bool, len(spans))
	total := 0.0
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		} else {
			total += s.End - s.Start
		}
	}
	gap := 0.0
	for i, t := range selfTimes(spans) {
		if hasKids[i] {
			gap += t
		}
	}
	if total <= 0 {
		return 0
	}
	return gap / total
}

// WriteSpans writes a traced run's spans as one JSON document.
func WriteSpans(path, workload string, seed uint64, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
