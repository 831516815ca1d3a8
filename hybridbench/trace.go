package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (or one replayed batch) share Req; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op, so call sites need no branches.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span identifier, so children can name their parent before
// the parent's end is known.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// child records a leaf span and returns its id.
func (r *recorder) child(parent, req int64, name string, start, end time.Time) int64 {
	id := r.id()
	r.add(id, parent, req, name, start, end)
	return id
}

// layerTime is the traced time of every span of one name.
type layerTime struct {
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
	Durs  []float64     // each span's duration in ms
}

// layers folds the spans into per-name totals. A span's self time is its
// duration minus the union of its children's intervals, clipped to it;
// children of one span may overlap when they ran on parallel workers.
func (r *recorder) layers() map[string]*layerTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		lt.Total += dur
		lt.Self += dur - covered(s, kids[s.ID])
		lt.Durs = append(lt.Durs, ms(dur))
	}
	return out
}

// covered returns how much of parent's interval the children's union covers.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}
