package client

import "sync"

// The paper's clients issue requests asynchronously, bounded only by
// the space in their RDMA buffers (§4). The ring and reply allocators
// already provide that backpressure, so async issue is a thin layer:
// each operation runs on its own goroutine and the Async handle bounds
// and collects them.

// Async issues operations without waiting for replies; Wait collects
// the first error. Outstanding requests are bounded by `window`
// (and, beneath that, by RDMA buffer space). Ops on one key keep the
// order they were issued in: an op is sent only once the op issued
// before it on the same key has been answered. Ops on different keys are
// not ordered.
type Async struct {
	c     *Client
	sem   chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
	// last holds, per key, the done channel of the latest op issued on it
	// that has not finished (guarded by mu).
	last map[string]chan struct{}
}

// Async creates an asynchronous issue handle with the given window of
// outstanding requests (defaults to 32 when window <= 0).
func (c *Client) Async(window int) *Async {
	if window <= 0 {
		window = 32
	}
	return &Async{c: c, sem: make(chan struct{}, window), last: map[string]chan struct{}{}}
}

func (a *Async) record(err error) {
	if err == nil {
		return
	}
	a.mu.Lock()
	if a.first == nil {
		a.first = err
	}
	a.mu.Unlock()
}

// launch runs fn, an op on key, under the window, once the op issued on
// key before it has finished. That op already holds its window slot, and
// waits only for ops issued before it, so the wait always ends.
func (a *Async) launch(key []byte, fn func() error) {
	a.sem <- struct{}{}
	k, done := string(key), make(chan struct{})
	a.mu.Lock()
	prev := a.last[k]
	a.last[k] = done
	a.mu.Unlock()
	a.wg.Add(1)
	go func() {
		defer func() {
			a.mu.Lock()
			if a.last[k] == done {
				delete(a.last, k)
			}
			a.mu.Unlock()
			close(done)
			<-a.sem
			a.wg.Done()
		}()
		if prev != nil {
			<-prev
		}
		a.record(fn())
	}()
}

// Put issues an asynchronous put. Key and value are copied, so the
// caller may reuse its buffers immediately.
func (a *Async) Put(key, value []byte) {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	a.launch(k, func() error { return a.c.Put(k, v) })
}

// Delete issues an asynchronous delete.
func (a *Async) Delete(key []byte) {
	k := append([]byte(nil), key...)
	a.launch(k, func() error { return a.c.Delete(k) })
}

// Get issues an asynchronous get; fn receives the result when the reply
// arrives (fn runs on the request's goroutine).
func (a *Async) Get(key []byte, fn func(value []byte, found bool)) {
	k := append([]byte(nil), key...)
	a.launch(k, func() error {
		v, found, err := a.c.Get(k)
		if err != nil {
			return err
		}
		if fn != nil {
			fn(v, found)
		}
		return nil
	})
}

// Wait blocks until every issued operation completed and returns the
// first error observed (nil if none).
func (a *Async) Wait() error {
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.first
}
