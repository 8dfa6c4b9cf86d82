package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark
// around the public function it calls. Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Req    int64  `json:"req"`    // request, step or run id; -1 for none
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the sweep replay and the load generator record from
// several goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere, such as a
// server event that reports its own duration.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans and a header as JSON at path.
func (t *tracer) write(path string, header any) error {
	b, err := json.Marshal(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// unionLength returns the total length covered by a set of
// half-open intervals, counting overlaps once.
func unionLength(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}

// clip returns iv limited to [lo, hi], and false when nothing remains.
func clip(iv [2]int64, lo, hi int64) ([2]int64, bool) {
	if iv[0] < lo {
		iv[0] = lo
	}
	if iv[1] > hi {
		iv[1] = hi
	}
	return iv, iv[1] > iv[0]
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its direct children cover. Children that
// run concurrently (the sweep's workers) are counted once, and a child
// outliving its parent counts only inside the parent. Spans that never
// ended have self time 0.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < cs.Start {
				continue
			}
			if iv, ok := clip([2]int64{cs.Start, cs.End}, s.Start, s.End); ok {
				ivs = append(ivs, iv)
			}
		}
		out[i] = s.End - s.Start - unionLength(ivs)
	}
	return out
}

// layerPrefixes names the modules whose calls the benchmark wraps in
// spans. Other spans (a workload root, one training step, one
// Monte-Carlo run) only group them.
var layerPrefixes = []string{
	"tensor.", "nn.", "fault.", "data.", "optim.", "core.", "metrics.", "serve.", "ftpm.", "load.",
}

func isLayerSpan(name string) bool {
	for _, p := range layerPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// uncovered returns the part of span root's interval that no layer
// span covers, whatever goroutine recorded it.
func uncovered(spans []span, root int) int64 {
	r := spans[root]
	var ivs [][2]int64
	for _, s := range spans {
		if s.End < s.Start || !isLayerSpan(s.Name) {
			continue
		}
		if iv, ok := clip([2]int64{s.Start, s.End}, r.Start, r.End); ok {
			ivs = append(ivs, iv)
		}
	}
	return r.End - r.Start - unionLength(ivs)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Self  int64 // summed self time, ns
}

// MeanMs returns the mean self time per span in milliseconds.
func (s spanStat) MeanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count) / 1e6
}

// aggregate sums self time by span name.
func aggregate(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for i := range spans {
		st := out[spans[i].Name]
		st.Count++
		st.Self += self[i]
		out[spans[i].Name] = st
	}
	return out
}
