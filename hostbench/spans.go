package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call into a layer, on host time relative to the
// tracer's start.
type span struct {
	name       string
	parent     int // index of the enclosing span; -1 for a root
	start, end int64
}

// tracer keeps a pass's spans in memory; they are written out only
// after the run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanNames lists every span the traced pass records, root first, in
// the order the layer table prints them.
var spanNames = []string{
	"sim.run",
	"sim.setup",
	"workload.fill",
	"cpu.execute",
	"core.tick",
	"core.harvest",
	"core.ranks",
	"policy.select",
	"policy.mover",
	"policy.collapse",
	"invariant.check",
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name   string
	calls  int
	selfNS int64 // duration less the time child spans cover
}

// layerTable is a traced pass's host time by span name. The root's
// self time is the run's unattributed time.
type layerTable struct {
	wallNS int64
	rows   []layerRow // indexed like spanNames
}

func (lt layerTable) row(name string) layerRow {
	for _, r := range lt.rows {
		if r.name == name {
			return r
		}
	}
	panic("hostbench: no span named " + name)
}

func (lt layerTable) unattributedNS() int64 { return lt.row("sim.run").selfNS }

// table computes every span's self time and sums them by name. Spans
// nest strictly, so the self times of all spans add up to the root's
// wall time exactly.
func (t *tracer) table() (layerTable, error) {
	self := make([]int64, len(t.spans))
	var lt layerTable
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		} else {
			lt.wallNS += s.end - s.start
		}
	}
	lt.rows = make([]layerRow, len(spanNames))
	for i, n := range spanNames {
		lt.rows[i].name = n
	}
	for i, s := range t.spans {
		k := indexOf(s.name)
		if k < 0 {
			return lt, fmt.Errorf("span %q is not in spanNames", s.name)
		}
		lt.rows[k].calls++
		lt.rows[k].selfNS += self[i]
	}
	return lt, nil
}

func indexOf(name string) int {
	for i, n := range spanNames {
		if n == name {
			return i
		}
	}
	return -1
}

// render prints the layer table; it ends with the unattributed row,
// the root span's self time.
func (lt layerTable) render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-18s %8s %12s %8s\n", title, "span", "calls", "self_ms", "share")
	for _, r := range lt.rows[1:] {
		fmt.Fprintf(&b, "%-18s %8d %12.3f %8.4f\n", r.name, r.calls, float64(r.selfNS)/1e6, lt.share(r.selfNS))
	}
	u := lt.unattributedNS()
	fmt.Fprintf(&b, "%-18s %8s %12.3f %8.4f\n", "unattributed", "", float64(u)/1e6, lt.share(u))
	return b.String()
}

func (lt layerTable) share(ns int64) float64 {
	if lt.wallNS == 0 {
		return 0
	}
	return float64(ns) / float64(lt.wallNS)
}

// writeChrome writes the spans as Chrome trace_event JSON on host time
// (microseconds), with meta as the trace's otherData.
func (t *tracer) writeChrome(w io.Writer, meta any) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name,
			Cat:  s.name[:strings.IndexByte(s.name, '.')],
			Ph:   "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Pid:  1,
			Tid:  1,
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		OtherData       any     `json:"otherData"`
	}{events, "ns", meta})
}
