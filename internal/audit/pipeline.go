package audit

import (
	"sync"
	"time"
)

// FlushInterval bounds how long an event the pipeline has appended waits
// in a file-backed log's write buffer: the worker writes the buffer on
// every tick, so a process kill loses at most the last interval's events.
const FlushInterval = 100 * time.Millisecond

// Pipeline decouples event production from log appends: producers enqueue
// onto a buffered channel and a single worker — the log's only writer —
// drains it, appending events to the Log in batches under one lock
// acquisition and writing the log's buffer at Flush barriers, on every
// FlushInterval tick and at Close. The AM sends every audit event through
// it, so sequence order is call order and audit writes happen outside the
// decision critical section.
//
// The pipeline is lossless: Enqueue blocks when the buffer is full
// (backpressure instead of dropped audit records), and Flush/Close drain
// everything already enqueued before returning. Readers that need
// read-your-writes consistency call Flush before querying the log.
type Pipeline struct {
	log *Log

	mu     sync.RWMutex // guards closed vs. sends on ch
	closed bool

	ch      chan pipelineMsg
	stopped chan struct{}
}

// pipelineMsg is one event, a batch of events, or a flush barrier (flush
// != nil).
type pipelineMsg struct {
	event Event
	batch []Event
	flush chan struct{}
}

// maxAuditBatch bounds how many events one AppendBatch call carries, so a
// deep backlog cannot hold the log lock for unbounded time.
const maxAuditBatch = 256

// DefaultPipelineBuffer is the channel capacity used when NewPipeline
// receives buffer <= 0.
const DefaultPipelineBuffer = 1024

// NewPipeline starts a pipeline appending into log.
func NewPipeline(log *Log, buffer int) *Pipeline {
	if buffer <= 0 {
		buffer = DefaultPipelineBuffer
	}
	p := &Pipeline{
		log:     log,
		ch:      make(chan pipelineMsg, buffer),
		stopped: make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *Pipeline) run() {
	defer close(p.stopped)
	tick := time.NewTicker(FlushInterval)
	defer tick.Stop()
	batch := make([]Event, 0, maxAuditBatch)
	var flushes []chan struct{}
	take := func(m pipelineMsg) {
		switch {
		case m.flush != nil:
			flushes = append(flushes, m.flush)
		case m.batch != nil:
			batch = append(batch, m.batch...)
		default:
			batch = append(batch, m.event)
		}
	}
	for {
		var msg pipelineMsg
		var ok bool
		select {
		case msg, ok = <-p.ch:
		case <-tick.C:
			p.log.flush()
			continue
		}
		if !ok {
			p.log.flush()
			return
		}
		batch, flushes = batch[:0], flushes[:0]
		take(msg)
		// Greedily drain whatever else is already buffered, up to the
		// batch cap, so a burst of decisions costs one lock acquisition.
	drain:
		for len(batch) < maxAuditBatch {
			select {
			case m, ok := <-p.ch:
				if !ok {
					break drain
				}
				take(m)
			default:
				break drain
			}
		}
		p.log.AppendBatch(batch)
		if len(flushes) > 0 {
			p.log.flush()
		}
		for _, f := range flushes {
			close(f)
		}
	}
}

// Enqueue hands an event to the pipeline. It blocks if the buffer is full
// (the worker is draining continuously, so this only happens under sustained
// overload). After Close, events are appended synchronously so no producer
// racing a shutdown ever loses a record.
func (p *Pipeline) Enqueue(e Event) {
	// Stamp the time at enqueue, not at drain: the audit trail must record
	// when the decision happened, not when the worker got to it.
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	p.send(pipelineMsg{event: e})
}

// EnqueueBatch hands several events to the pipeline in one channel send,
// in order; the pipeline owns the slice from then on.
func (p *Pipeline) EnqueueBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	now := time.Now()
	for i := range events {
		if events[i].Time.IsZero() {
			events[i].Time = now
		}
	}
	p.send(pipelineMsg{batch: events})
}

func (p *Pipeline) send(m pipelineMsg) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		if m.batch == nil {
			p.log.Append(m.event)
			return
		}
		p.log.AppendBatch(m.batch)
		p.log.flush()
		return
	}
	// Send while holding the read lock: Close takes the write lock, so the
	// channel cannot close mid-send. The worker never takes p.mu, so a
	// blocked send still drains.
	p.ch <- m
	p.mu.RUnlock()
}

// Depth reports how many messages (single events or batches) are buffered
// but not yet appended — the health signal surfaced by the AM's
// /v1/healthz (a persistently full buffer means the log writer is the
// bottleneck).
func (p *Pipeline) Depth() int { return len(p.ch) }

// Capacity reports the pipeline's buffer size.
func (p *Pipeline) Capacity() int { return cap(p.ch) }

// Flush blocks until every event enqueued before the call is in the log
// and a file-backed log has written it.
func (p *Pipeline) Flush() {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return
	}
	done := make(chan struct{})
	p.ch <- pipelineMsg{flush: done}
	p.mu.RUnlock()
	<-done
}

// Close drains outstanding events, writes them, and stops the worker. Safe
// to call more than once; Enqueue after Close degrades to a synchronous
// append. The Log itself stays open (see Log.Close).
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.stopped
		return
	}
	p.closed = true
	close(p.ch)
	p.mu.Unlock()
	<-p.stopped
}
