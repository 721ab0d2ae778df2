package metrics

// Source is the one contract between a thing that counts and the
// registry that exposes it (obs.Registry.Register): Collect returns the
// source's metric families with their current samples, all computed
// from a single snapshot so the lines of one scrape agree with each
// other. Every stats type in this package implements it beside its
// counters, and so do the modules that own state of their own (the
// server, the master, the admission controller, the tracer, the event
// journal). Adding a family is adding a row to its owner's Collect.
//
// A Source is registered once and compared by identity, so implement it
// on a pointer. Collect on a nil receiver returns nothing.
type Source interface {
	Collect() []Family
}

// Family is one metric family at scrape time. A family with no samples
// still renders its HELP and TYPE lines.
type Family struct {
	Name, Help string
	// Kind is "counter", "gauge" or "summary".
	Kind    string
	Samples []Sample
}

// Sample is one series of a Family.
type Sample struct {
	// Suffix is appended to the family name ("_count" on a summary's
	// count line).
	Suffix string
	// Labels join the labels the source was registered under; the union
	// renders sorted by key.
	Labels map[string]string
	// Extra is a pre-rendered label list (`kind="read",region="3"`)
	// appended after the sorted labels — the form families use whose
	// children come and go between scrapes.
	Extra string
	Value float64
}

// Counter, Gauge and Summary build a family of that kind.
func Counter(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Kind: "counter", Samples: samples}
}

func Gauge(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Kind: "gauge", Samples: samples}
}

func Summary(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Kind: "summary", Samples: samples}
}

// Value is the sample of a family with one series per registration.
func Value(v float64) Sample { return Sample{Value: v} }

// Labeled is a sample distinguished by one fixed label.
func Labeled(key, val string, v float64) Sample {
	return Sample{Labels: map[string]string{key: val}, Value: v}
}

// Add appends a sample under pre-rendered labels (Sample.Extra).
func (f *Family) Add(extra string, v float64) {
	f.Samples = append(f.Samples, Sample{Extra: extra, Value: v})
}

// Quantiles is the percentile grid every summary family exposes; the
// label is pre-rendered so 99.9/100 doesn't pick up float dust.
var Quantiles = []struct {
	Percentile float64
	Label      string
}{
	{50, "0.5"},
	{90, "0.9"},
	{99, "0.99"},
	{99.9, "0.999"},
}
