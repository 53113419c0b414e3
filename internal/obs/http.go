package obs

import (
	"net/http"
	"net/http/pprof"
)

// Handler returns the HTTP scrape surface stmserve mounts under -obs:
//
//	/debug/obs         registry snapshot as JSON (expvar-style flat names)
//	/debug/obs/events  flight-recorder dump as text
//	/debug/obs/trace   tracer span ring as JSON
//	/debug/pprof/...   net/http/pprof
//	/                  redirects to /debug/obs
//
// reg must be non-nil; rec and tr may be nil (the events endpoint then
// reports that no recorder is attached, and the trace endpoint serves a
// valid empty document with every=0).
func Handler(reg *Registry, rec *Recorder, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	serveJSON := func(w http.ResponseWriter, b []byte, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		w.Write([]byte("\n"))
	}
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, req *http.Request) {
		b, err := reg.JSON()
		serveJSON(w, b, err)
	})
	mux.HandleFunc("/debug/obs/events", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rec.Dump(w)
	})
	mux.HandleFunc("/debug/obs/trace", func(w http.ResponseWriter, req *http.Request) {
		b, err := tr.JSON()
		serveJSON(w, b, err)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		http.Redirect(w, req, "/debug/obs", http.StatusFound)
	})
	return mux
}
