package main

import (
	"strings"
	"sync"
	"time"

	"edgetune/internal/store"
)

// countingFS wraps the real filesystem handed to store.OpenDurable and
// counts the store layer's I/O: fsyncs (file and directory) with their
// wall time, and bytes appended to the write-ahead log.
type countingFS struct {
	store.OSFS

	mu       sync.Mutex
	fsyncs   int64
	fsyncDur time.Duration
	walBytes int64
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasSuffix(path, ".wal")}, nil
}

func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := c.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasSuffix(path, ".wal")}, nil
}

func (c *countingFS) SyncDir(path string) error {
	start := time.Now()
	err := c.OSFS.SyncDir(path)
	c.addSync(time.Since(start))
	return err
}

func (c *countingFS) addSync(d time.Duration) {
	c.mu.Lock()
	c.fsyncs++
	c.fsyncDur += d
	c.mu.Unlock()
}

// snapshot returns the counts so far.
func (c *countingFS) snapshot() (fsyncs int64, fsyncDur time.Duration, walBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fsyncs, c.fsyncDur, c.walBytes
}

type countingFile struct {
	store.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.mu.Lock()
		f.fs.walBytes += int64(n)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.addSync(time.Since(start))
	return err
}
