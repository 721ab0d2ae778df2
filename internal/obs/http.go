package obs

import (
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the buffered spans as Chrome trace-event JSON.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteChromeTrace(w)
	})
}

// Handler serves the sampler's buffered time series as JSON, or as CSV
// rows (`series,t_ms,v`) with ?format=csv.
func (s *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r != nil && r.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			_ = s.WriteCSV(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.WriteJSON(w)
	})
}

// muxIndex lists the mounted endpoints, served at exactly "/".
const muxIndex = `tebis observability endpoints:
  /metrics            Prometheus text exposition
  /metrics/history    sampled time series (JSON; ?format=csv for series,t_ms,v rows)
  /healthz            liveness (200 while the process serves)
  /readyz             readiness (503 while degraded, frozen, or device-faulted)
  /debug/events       control-plane event journal (JSON; ?type=X filters)
  /debug/trace        Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)
  /debug/vars         expvar JSON
  /debug/pprof/       interactive pprof index
`

// NewMux mounts the observability endpoints: /metrics (Prometheus
// text), /metrics/history (sampled time series), /healthz and /readyz
// (liveness/readiness), /debug/vars (expvar JSON), /debug/trace
// (Chrome trace-event JSON), /debug/events (the control-plane event
// journal), and /debug/pprof/* (net/http/pprof, registered explicitly
// rather than relying on its DefaultServeMux side effects). Every
// argument may be nil; the endpoints then serve empty documents (a nil
// health is always ready). "/" serves a plain-text index, and any other
// unknown path gets an explicit 404 instead of silently falling through
// to the index.
func NewMux(reg *Registry, tr *Tracer, samp *Sampler, ev *EventLog, health *Health) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/metrics/history", samp.Handler())
	mux.Handle("/healthz", health.LiveHandler())
	mux.Handle("/readyz", health.ReadyHandler())
	mux.Handle("/debug/events", ev.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/trace", tr.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, muxIndex)
	})
	return mux
}

// Serve listens on addr (e.g. "127.0.0.1:0") and serves the
// observability mux in a background goroutine. It returns the actual
// listen address so callers can use port 0. The server runs until the
// process exits; tebis-server's lifetime is the process lifetime, so no
// shutdown plumbing is needed.
func Serve(addr string, reg *Registry, tr *Tracer, samp *Sampler, ev *EventLog, health *Health) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: NewMux(reg, tr, samp, ev, health)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
