package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// HistSnapshot is the plain-data form of a histogram.
type HistSnapshot struct {
	// Bounds are the inclusive upper bucket bounds; Counts has one extra
	// final element for the +Inf bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a plain-data copy of a registry at one instant. Marshalling
// a Snapshot produces deterministic output: encoding/json emits map keys
// in sorted order, and every value is an integer.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// NewSnapshot returns an empty snapshot ready for Merge.
func NewSnapshot() *Snapshot {
	return &Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
}

// Snapshot copies the registry's current values. Returns an empty snapshot
// on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return NewSnapshot()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{Counters: make(map[string]int64, len(r.cs)), Gauges: make(map[string]int64, len(r.gs))}
	for n, c := range r.cs {
		s.Counters[n] = c.v.Load()
	}
	for n, g := range r.gs {
		s.Gauges[n] = g.v.Load()
	}
	for n, h := range r.hs {
		hs := HistSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.sum.Load(),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot, len(r.hs))
		}
		s.Histograms[n] = hs
	}
	return s
}

// Merge folds other into s: counters and histogram buckets sum, gauges
// take the maximum (merged gauges are high-water marks). Histograms with
// mismatched bounds keep s's buckets and only fold sum and count. Merge is
// commutative and associative up to these rules, so aggregating parallel
// runs is order-independent — merged snapshots stay deterministic.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for n, v := range other.Counters {
		s.Counters[n] += v
	}
	for n, v := range other.Gauges {
		if cur, ok := s.Gauges[n]; !ok || v > cur {
			s.Gauges[n] = v
		}
	}
	for n, h := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = map[string]HistSnapshot{}
		}
		cur, ok := s.Histograms[n]
		if !ok {
			s.Histograms[n] = HistSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
				Count:  h.Count,
			}
			continue
		}
		if len(cur.Counts) == len(h.Counts) {
			for i := range cur.Counts {
				cur.Counts[i] += h.Counts[i]
			}
		}
		cur.Sum += h.Sum
		cur.Count += h.Count
		s.Histograms[n] = cur
	}
}

// Counter returns a counter's value from the snapshot (0 when absent).
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value from the snapshot, or def when absent.
// Gauges encode "unset" as sentinel values (-1 for times), so absence must
// not collapse to 0.
func (s *Snapshot) Gauge(name string, def int64) int64 {
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	return def
}

// WriteJSON writes the snapshot as indented JSON. Output is byte-identical
// for equal snapshots.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSON snapshots the registry and writes it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4), instruments in sorted name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, name := range r.names() {
		r.mu.Lock()
		c, isC := r.cs[name]
		g, isG := r.gs[name]
		h, isH := r.hs[name]
		r.mu.Unlock()
		var err error
		switch {
		case isC:
			err = writeSimple(w, name, c.help, "counter", c.v.Load())
		case isG:
			err = writeSimple(w, name, g.help, "gauge", g.v.Load())
		case isH:
			err = writeHistogram(w, name, h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSimple(w io.Writer, name, help, typ string, v int64) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
	return err
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	if h.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, cum, name, h.sum.Load(), name, h.count.Load())
	return err
}
