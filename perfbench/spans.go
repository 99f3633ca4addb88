package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// request or job share Trace; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	// StartNS and EndNS are wall-clock offsets from the log's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out once, when the
// run ends, so writing never overlaps a timed phase.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	next   uint64
	spans  []span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its ID. A nil log records
// nothing.
func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(l.origin)), EndNS: int64(end.Sub(l.origin)),
	})
	l.mu.Unlock()
	return id
}

// reserve returns an ID for a span whose children finish before it
// does; record it with addID.
func (l *spanLog) reserve() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// addID records a finished span under an ID from reserve.
func (l *spanLog) addID(id, trace, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(l.origin)), EndNS: int64(end.Sub(l.origin)),
	})
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// save writes the spans as JSON lines.
func (l *spanLog) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
