package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the run's epoch on the monotonic clock; parent indexes the
// enclosing span in the same log (-1 for a root); req identifies the
// request (or campus replica) every span of one unit of work shares.
type span struct {
	name       int32
	parent     int32
	req        int64
	start, end int64
}

// spanLog keeps a traced round's spans in memory. Names are interned so a
// span is a flat 32-byte record and self-time aggregation indexes slices,
// not maps.
type spanLog struct {
	names []string
	ids   map[string]int32
	spans []span
	total int // spans recorded, of which a clone may keep only the first
}

func newSpanLog() *spanLog { return &spanLog{ids: make(map[string]int32)} }

// intern returns the ID of name, adding it on first use.
func (l *spanLog) intern(name string) int32 {
	if id, ok := l.ids[name]; ok {
		return id
	}
	id := int32(len(l.names))
	l.names = append(l.names, name)
	l.ids[name] = id
	return id
}

// add appends a span and returns its index.
func (l *spanLog) add(name, parent int32, req, start, end int64) int32 {
	l.spans = append(l.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// reset drops the spans but keeps the interned names and the capacity.
func (l *spanLog) reset() { l.spans = l.spans[:0] }

// clone copies the names and the first n spans, so a round's spans
// survive the buffer's reuse.
func (l *spanLog) clone(n int) *spanLog {
	c := &spanLog{names: append([]string(nil), l.names...), ids: make(map[string]int32, len(l.ids))}
	for i, n := range c.names {
		c.ids[n] = int32(i)
	}
	c.spans = append([]span(nil), l.spans[:min(n, len(l.spans))]...)
	c.total = len(l.spans)
	return c
}

// layerTime is the aggregated self time of every span with one name.
type layerTime struct {
	selfNs int64
	count  int64
}

// selfTimes derives per-name self time: a span's duration minus the part
// of it its children cover (children are clipped to the parent and
// assumed not to overlap each other, which holds for every span this
// benchmark records). The result is indexed by name ID.
func (l *spanLog) selfTimes() []layerTime {
	covered := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent < 0 {
			continue
		}
		p := l.spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := make([]layerTime, len(l.names))
	for i, s := range l.spans {
		out[s.name].selfNs += s.end - s.start - covered[i]
		out[s.name].count++
	}
	return out
}

// selfOf returns the self time and count aggregated under name (zero when
// the name never occurred).
func selfOf(l *spanLog, times []layerTime, name string) layerTime {
	id, ok := l.ids[name]
	if !ok || int(id) >= len(times) {
		return layerTime{}
	}
	return times[id]
}

// maxWrittenSpans caps the span file; a campus round holds close to a
// million spans, and the first quarter million show every layer.
const maxWrittenSpans = 250_000

// writeSpans writes the log as CSV after header comments carrying the run
// manifest and how many of the round's spans the log kept, creating the
// directory as needed.
func writeSpans(path string, manifestLine []byte, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n", manifestLine)
	fmt.Fprintf(w, "# %d of %d spans\n", len(l.spans), l.total)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,req")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, l.names[s.name], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// tracedListener wraps the server's listener so every accepted connection
// records when each request frame arrived and how the reply left: the
// controlplane boundary, timed from outside the package.
type tracedListener struct {
	net.Listener
	epoch     time.Time
	maxFrames int

	mu sync.Mutex
	//dhllint:guardedby mu
	conns []*tracedConn
}

func newTracedListener(ln net.Listener, epoch time.Time, maxFrames int) *tracedListener {
	return &tracedListener{Listener: ln, epoch: epoch, maxFrames: maxFrames}
}

// Accept wraps the next connection, numbering connections in accept order.
func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, epoch: l.epoch, maxFrames: l.maxFrames}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns = append(l.conns, tc)
	return tc, nil
}

// accepted returns the wrapped connections. Call only after the server's
// Close has returned, when no handler touches them any more.
func (l *tracedListener) accepted() []*tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tracedConn(nil), l.conns...)
}

// write is one Write call on a traced connection.
type write struct {
	start, end int64
	bytes      int
}

// tracedConn records, per connection, the arrival time of each request
// frame (newline) and every reply write. The server's handler goroutine
// is its only user until the connection closes.
type tracedConn struct {
	net.Conn
	epoch     time.Time
	maxFrames int

	frameAt []int64  // arrival time of each request frame
	frames  [][]byte // captured frame bytes for the decode replay
	partial []byte   // bytes of a frame still being received
	writes  []write
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		at := int64(time.Since(c.epoch))
		data := p[:n]
		for {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				c.partial = append(c.partial, data...)
				break
			}
			c.frameAt = append(c.frameAt, at)
			if len(c.frames) < c.maxFrames {
				frame := append(append([]byte(nil), c.partial...), data[:i+1]...)
				c.frames = append(c.frames, frame)
			}
			c.partial = c.partial[:0]
			data = data[i+1:]
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := int64(time.Since(c.epoch))
	n, err := c.Conn.Write(p)
	c.writes = append(c.writes, write{start: start, end: int64(time.Since(c.epoch)), bytes: n})
	return n, err
}
