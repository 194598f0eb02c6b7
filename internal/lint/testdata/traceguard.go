// Fixture for the nilguard analyzer's trace.Tracer row, type-checked
// under the virtual path diversify/internal/scada (guard-scoped).
package scada

import "diversify/internal/trace"

type campaign struct {
	tracer *trace.Tracer
}

func (c *campaign) unguarded(r trace.Record) {
	c.tracer.Emit(r) // want "not behind a nil-tracer guard"
}

func (c *campaign) guarded(r trace.Record) {
	if c.tracer != nil {
		c.tracer.Emit(r)
	}
}

func (c *campaign) guardedInChain(r trace.Record, hot bool) {
	if hot && c.tracer != nil {
		c.tracer.Emit(r)
	}
}

func (c *campaign) earlyReturn(r trace.Record) {
	if c.tracer == nil {
		return
	}
	c.tracer.Emit(r)
}

func (c *campaign) elseBranch(r trace.Record) {
	if c.tracer == nil {
		_ = r
	} else {
		c.tracer.Emit(r)
	}
}

func (c *campaign) wrongGuard(r trace.Record, other *trace.Tracer) {
	if other != nil {
		c.tracer.Emit(r) // want "not behind a nil-tracer guard"
	}
}

func (c *campaign) localTracer(r trace.Record, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	tr.Emit(r)
}
