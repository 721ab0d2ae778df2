// Package obs is the observability surface: a registry that renders
// metric families in the Prometheus text exposition format, a bounded
// ring tracer exporting Chrome trace-event JSON, the control-plane event
// journal, health checks, a history sampler, and the HTTP mux that
// serves them.
//
// obs owns no metric family but its own (the trace ring's and the
// journal's). Every other family is declared by the module that counts
// it, as a metrics.Source beside the counters (internal/metrics, the
// server, the master, the admission controller); Registry.Register
// attaches a source under a label set and every scrape calls it once.
// internal/cluster/testdata/families.golden is the catalogue.
//
// Everything is nil-safe: a nil *Registry registers nothing and a nil
// *Tracer drops spans, so the hot path pays only a nil check when
// observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tebis/internal/metrics"
)

// Labels is the label set a source is registered under (e.g.
// {"node": "s0"}).
type Labels map[string]string

// clone copies ls with extra pairs merged in.
func (ls Labels) clone(extra Labels) Labels {
	out := make(Labels, len(ls)+len(extra))
	for k, v := range ls {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// render serializes labels in the exposition format, sorted by key so
// output is deterministic: `{a="x",b="y"}`, or "" when empty.
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(ls[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// withExtra appends pre-rendered label pairs to a rendered label set.
func withExtra(rendered, extra string) string {
	switch {
	case extra == "":
		return rendered
	case rendered == "":
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// registration is one source attached under one label set.
type registration struct {
	labels   Labels
	rendered string
	src      metrics.Source
}

// Registry holds registered sources and renders their families in the
// Prometheus text exposition format. All methods are safe for concurrent
// use and nil-safe: a nil *Registry registers and renders nothing.
type Registry struct {
	mu   sync.Mutex
	regs []registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register attaches src under labels: from now on every WritePrometheus,
// ReadSeries and Families call collects it exactly once and exposes its
// families with labels joined to each sample's own. Registering the same
// source under the same labels again is a no-op, so servers sharing one
// cluster-wide stage set, journal or trace ring each register it and it
// renders once. A nil registry or source is a no-op.
func (r *Registry) Register(labels Labels, src metrics.Source) {
	if r == nil || src == nil {
		return
	}
	rendered := labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.regs {
		if g.src == src && g.rendered == rendered {
			return
		}
	}
	r.regs = append(r.regs, registration{labels: labels.clone(nil), rendered: rendered, src: src})
}

// series is one exposition line of a family: name+suffix{labels,extra}
// value. Lines sort by labels, then suffix, then extra.
type series struct {
	labels, suffix, extra string
	value                 float64
}

// id is the series identifier after the family name.
func (s series) id() string { return s.suffix + withExtra(s.labels, s.extra) }

// family is one named family of a scrape, merged across registrations.
type family struct {
	name, help, kind string
	series           []series
}

// collect calls every registered source once and merges what they
// return into families sorted by name, each family's series sorted by
// label set. The first source to name a family fixes its help and kind.
// Sources run outside the registry lock.
func (r *Registry) collect() []*family {
	r.mu.Lock()
	regs := r.regs
	r.mu.Unlock()
	byName := make(map[string]*family)
	var fams []*family
	for _, g := range regs {
		for _, mf := range g.src.Collect() {
			f := byName[mf.Name]
			if f == nil {
				f = &family{name: mf.Name, help: mf.Help, kind: mf.Kind}
				byName[mf.Name] = f
				fams = append(fams, f)
			}
			for _, sm := range mf.Samples {
				labels := g.rendered
				if len(sm.Labels) > 0 {
					labels = g.labels.clone(sm.Labels).render()
				}
				f.series = append(f.series, series{labels, sm.Suffix, sm.Extra, sm.Value})
			}
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.SliceStable(f.series, func(i, j int) bool {
			a, b := f.series[i], f.series[j]
			if a.labels != b.labels {
				return a.labels < b.labels
			}
			if a.suffix != b.suffix {
				return a.suffix < b.suffix
			}
			return a.extra < b.extra
		})
	}
	return fams
}

// Families returns the sorted names of the families the registered
// sources currently report.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	fams := r.collect()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.name
	}
	return out
}

// ReadSeries returns the current value of every series. Keys are full
// series identifiers as they appear in the exposition output (family
// name, suffix, rendered labels), so history samples line up with
// scraped lines.
func (r *Registry) ReadSeries() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, f := range r.collect() {
		for _, s := range f.series {
			out[f.name+s.id()] = s.value
		}
	}
	return out
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name and label set so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.collect() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if math.IsNaN(s.value) {
				// An undefined sample (e.g. an amplification ratio
				// before any user bytes): omit the series rather
				// than exposing a bogus value.
				continue
			}
			format := byte('g')
			if s.value == math.Trunc(s.value) && math.Abs(s.value) < 1e15 {
				// Integral values (byte totals, counts) read better
				// without an exponent.
				format = 'f'
			}
			line := f.name + s.id() + " " + strconv.FormatFloat(s.value, format, -1, 64) + "\n"
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
