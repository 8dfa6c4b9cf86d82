package main

import (
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: concurrent children count once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // outlives the parent: counts up to 100 only
		{Name: "a.x", Start: 12, End: 18, Parent: 1},
		{Name: "open", Start: 60, End: -1, Parent: 0}, // never ended: ignored
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	agg := aggregate(spans)
	if st := agg["a"]; st.Count != 1 || st.Self != 14 {
		t.Fatalf("aggregate[a] = %+v, want 1 call, 14 ns", st)
	}
}

func TestUncoveredCountsOnlyLayerSpans(t *testing.T) {
	spans := []span{
		{Name: "ft-train", Start: 0, End: 100, Parent: -1},
		{Name: "ft.step", Start: 0, End: 100, Parent: 0}, // grouping span, not a layer
		{Name: "nn.fwd.stem", Start: 10, End: 40, Parent: 1},
		{Name: "fault.undo", Start: 30, End: 60, Parent: 1},
		{Name: "optim.step", Start: 95, End: 130, Parent: 1},
	}
	if got := uncovered(spans, 0); got != 100-50-5 {
		t.Fatalf("uncovered = %d, want 45", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
	// 1000 samples 1..1000: p99 is the 990th value, with 10 above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 990 || p != 99 {
		t.Fatalf("tail = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the maximum", v, p)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, dur = 600.0, 5 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	want := rate * dur.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want about %v", n, want)
	}
	for i := range a {
		if a[i] < 0 || a[i] >= dur || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("offset %d = %v is out of order or outside [0, %v)", i, a[i], dur)
		}
	}
}

func TestQuietBlocksKeepUndisturbedOrLeastStolenHalf(t *testing.T) {
	keeps := func(bs []loadBlock) []float64 {
		var out []float64
		for _, b := range quietBlocks(bs) {
			out = append(out, b.keep)
		}
		return out
	}
	stolen := []loadBlock{{keep: 0.7}, {keep: 1}, {keep: 0.9}, {keep: 0.95}, {keep: 0.5}}
	if got := keeps(stolen); !slices.Equal(got, []float64{1, 0.95, 0.9}) {
		t.Errorf("quietBlocks kept %v, want the least-stolen half", got)
	}
	quiet := []loadBlock{{keep: 1}, {keep: 0.995}, {keep: 0.8}, {keep: 1}, {keep: 0.999}, {keep: 0.9}}
	if got := keeps(quiet); !slices.Equal(got, []float64{1, 1, 0.999, 0.995}) {
		t.Errorf("quietBlocks kept %v, want every undisturbed block", got)
	}
}

// TestBenchmarkMetricNames checks BENCHMARK.json, the table the
// benchmark reads its metrics from: the workloads are the ones the
// benchmark runs, and every metric name is well-formed and used once.
func TestBenchmarkMetricNames(t *testing.T) {
	bench, err := loadBenchmark(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestSaturatingStepShedsWithoutFailing(t *testing.T) {
	// 100 correct replies over 1 s of a closed-loop block that kept half
	// the CPU: 200 replies per steal-adjusted second.
	var rs []reqResult
	for i := 0; i < 100; i++ {
		at := time.Duration(i+1) * 10 * time.Millisecond
		rs = append(rs, reqResult{due: at - 5*time.Millisecond, sent: at - 5*time.Millisecond, done: at, ok: true, status: 200})
	}
	st := summarize(0, []loadBlock{{rs: rs, keep: 0.5, closed: true}}, 100)
	if math.Abs(st.goodput-200) > 1e-9 || !st.ok {
		t.Fatalf("goodput %v, ok %v; want 200 replies per steal-adjusted second, ok", st.goodput, st.ok)
	}
	open := summarize(100, []loadBlock{{rs: rs, keep: 0.5}}, 100)
	if math.Abs(open.goodput-100) > 1e-9 {
		t.Fatalf("open-loop goodput %v, want the wall-clock 100", open.goodput)
	}

	shed := append(slices.Clone(rs), reqResult{status: http.StatusTooManyRequests})
	res := newResult()
	checkReplies(shed, true, res)
	if res.failed != 0 || res.attempted != len(shed) {
		t.Fatalf("saturating step: %d of %d failed, want a 429 to pass", res.failed, res.attempted)
	}
	if st := summarize(0, []loadBlock{{rs: shed, keep: 1, closed: true}}, 100); st.ok || st.rejected != 1 {
		t.Fatalf("a shed request must end max_ok_rps below the step: ok %v, rejected %d", st.ok, st.rejected)
	}
	checkReplies(shed, false, res)
	if res.failed != 1 {
		t.Fatalf("a fixed rate's 429 must fail the run, got %d failures", res.failed)
	}
}
