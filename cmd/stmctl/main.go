// Command stmctl is the operator's view of a running stmserve, or of a
// document saved from one:
//
//	stmctl top -addr 127.0.0.1:7707              # live dashboard, polled over the wire OpStats op
//	stmctl top -file snapshot.json -once         # render one saved snapshot
//	stmctl trace -addr 127.0.0.1:7707 -warm 64   # drive 64 inserts, then render sampled waterfalls
//	stmctl trace -file trace.json                # render a saved /debug/obs/trace dump
//
// Both sub-commands read a versioned JSON document from exactly one of -addr
// (the server's wire port, not its -obs port) or -file, bound every exchange
// with a live server by -timeout, and refuse a document without a version.
// Exit status: 2 for a usage error, 1 for a transport error or a failed
// assertion (trace -min-complete).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/server/client"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(*source, *flag.FlagSet) func(io.Writer) error{"top": topCmd, "trace": traceCmd}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: stmctl top|trace -addr host:port | -file doc.json [flags]   (-h lists a sub-command's flags)")
		return 2
	}
	src := &source{}
	fs := flag.NewFlagSet("stmctl "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&src.addr, "addr", "", "stmserve wire address to fetch from")
	fs.StringVar(&src.file, "file", "", "render a saved JSON document instead of fetching")
	cmd := cmds[args[0]](src, fs)
	err := fs.Parse(args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil: // the flag package has printed it
		return 2
	case (src.addr == "") == (src.file == ""):
		fmt.Fprintf(stderr, "stmctl %s: exactly one of -addr or -file is required\n", args[0])
		return 2
	case src.addr != "":
		src.cl, err = client.Dial(src.addr, client.Options{Timeout: src.timeout})
	}
	if err == nil {
		err = cmd(stdout)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "stmctl %s: %v\n", args[0], err)
	return 1
}

// source is where a sub-command's document comes from: a live server's wire
// port or a saved file.
type source struct {
	addr, file string
	timeout    time.Duration // the sub-command declares -timeout with its own default
	cl         *client.Client
}

// load reads one document into doc. Against a live server, get makes the
// exchange and is bounded by the timeout: a peer that accepts the connection
// but never answers the wire protocol (wrong port, hung or severed server)
// must surface as a transport error, not an indefinite hang. The abandoned
// call and its connection are left to process exit.
func (s *source) load(get func(*client.Client) ([]byte, error), doc any) error {
	type result struct {
		blob []byte
		err  error
	}
	var r result
	if s.file != "" {
		r.blob, r.err = os.ReadFile(s.file)
	} else {
		done := make(chan result, 1)
		go func() {
			blob, err := get(s.cl)
			done <- result{blob, err}
		}()
		select {
		case r = <-done:
		case <-time.After(s.timeout):
			return fmt.Errorf("no response within %v (not a stmserve wire port, or server hung?)", s.timeout)
		}
	}
	if r.err != nil {
		return r.err
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(r.blob, &head); err != nil {
		return fmt.Errorf("parse document: %w", err)
	}
	if head.Version == 0 {
		// A document that parses but carries no version is not a server's at
		// all (empty object from a severed peer, truncated or foreign file):
		// fail loudly instead of rendering a blank screen.
		return errors.New("empty document (no version field) — server unreachable or severed?")
	}
	return json.Unmarshal(r.blob, doc)
}
