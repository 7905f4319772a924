package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function. Spans of one op share op; parent is the
// id of the enclosing span, -1 for the op's root.
type span struct {
	ID     int           `json:"id"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; write dumps them when the run ends.
// Times are offsets from the recorder's creation.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a span with an explicit interval and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Op: op, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a span whose end finish sets; children may name it as
// their parent in between.
func (r *recorder) begin(op, parent int, name string) int {
	return r.add(op, parent, name, r.now(), 0)
}

func (r *recorder) finish(id int) { r.spans[id].End = r.now() }

// call times fn as a span.
func (r *recorder) call(op, parent int, name string, fn func() error) error {
	start := r.now()
	err := fn()
	r.add(op, parent, name, start, r.now())
	return err
}

// graft copies a span tree recorded elsewhere under parent, shifted so
// its root starts where parent starts and clipped to parent's interval.
// The server workloads use it: the handler's call sequence runs again in
// process after the socket request, and its spans are laid over that
// request. tree[0] is the tree's root and parents precede children.
func (r *recorder) graft(op, parent int, tree []span) {
	if len(tree) == 0 {
		return
	}
	shift := r.spans[parent].Start - tree[0].Start
	ids := make(map[int]int, len(tree))
	for _, s := range tree {
		p := parent
		if s.Parent >= 0 {
			p = ids[s.Parent]
		}
		bound := r.spans[p]
		start := min(max(s.Start+shift, bound.Start), bound.End)
		end := max(min(s.End+shift, bound.End), start)
		ids[s.ID] = r.add(op, p, s.Name, start, end)
	}
}

func (r *recorder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerOf maps a span name to its layer: the prefix before the first dot
// ("workload.get_stats" → "workload"). An op's root span has no layer of
// its own; its self time is the uncovered remainder.
func layerOf(name string) string {
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return uncovered
}

const uncovered = "uncovered"

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent's interval and overlapping children count once. Within one op
// the self times of all spans add up to the root's duration only when no
// two siblings overlap: an overlap is covered once for the parent but
// counted in each sibling's own duration.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer over every span recorded.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// addsUp reports whether the per-layer self times sum to the total
// duration of the ops' root spans, the check a traced run makes on its
// span tree. Overlapping siblings make it fail.
func addsUp(spans []span, self map[string]time.Duration) bool {
	var selfSum, opSum time.Duration
	for _, d := range self {
		selfSum += d
	}
	for _, s := range spans {
		if s.Parent < 0 {
			opSum += s.dur()
		}
	}
	return selfSum == opSum
}

// spanDurations collects the durations of every span with the given name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
