package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/service"
)

// daemon is one in-process timeprintd on its own copy of the fleet
// store, configured like cmd/timeprintd with its default flags.
type daemon struct {
	dir        string
	reg        *obs.Registry
	store      *logstore.Store
	srv        *service.Server
	addr       string // HTTP listener
	streamAddr string
}

// startDaemon copies the fleet store into dir (untimed), then times a
// cold start: store open and index scan, server start, and the warm-up
// probe that builds every session and backend the workloads use.
func startDaemon(fleetDir, dir string, pr probe) (*daemon, time.Duration, error) {
	if err := copyStore(fleetDir, dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d := &daemon{dir: dir, reg: obs.NewRegistry()}
	core.SetObserver(d.reg)
	st, rec, err := logstore.Open(dir, logstore.Options{Obs: d.reg})
	if err != nil {
		return nil, 0, err
	}
	if rec.Corrupt() {
		st.Close()
		return nil, 0, fmt.Errorf("fleet store copy failed recovery: %v", rec.Errs)
	}
	d.store = st
	d.srv = service.New(service.Config{
		Addr:       "127.0.0.1:0",
		StreamAddr: "127.0.0.1:0",
		Store:      st,
		Obs:        d.reg,
	})
	addr, err := d.srv.Start()
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	d.addr = addr.String()
	d.streamAddr = d.srv.StreamAddr().String()
	if err := pr.run(d); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up probe: %w", err)
	}
	return d, time.Since(start), nil
}

// stop drains the server, closes the store and deletes its copy.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	core.SetObserver(nil)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// conn is one closed-loop client's keep-alive HTTP/1.1 connection to
// the daemon, written and read directly. net/http's Transport would
// hand every request between three goroutines per connection, which
// adds client cost and scheduling noise to each measured request.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	buf  bytes.Buffer
}

func (d *daemon) dial() (*conn, error) {
	c, err := net.DialTimeout("tcp", d.addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), host: d.addr}, nil
}

// do sends one request (a POST with a JSON body, or a GET when body is
// nil) and returns the status and response body.
func (c *conn) do(path string, body []byte) (int, []byte, error) {
	c.buf.Reset()
	if body == nil {
		fmt.Fprintf(&c.buf, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, c.host)
	} else {
		fmt.Fprintf(&c.buf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, c.host, len(body))
		c.buf.Write(body)
	}
	if _, err := c.c.Write(c.buf.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *conn) close() error { return c.c.Close() }

// call posts v as JSON, requires 200 and decodes the reply into out.
func (c *conn) call(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, resp, err := c.do(path, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, code, resp)
	}
	return json.Unmarshal(resp, out)
}
