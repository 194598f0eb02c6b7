// Fixture for the nilguard analyzer's telemetry.Sink row, type-checked
// under the virtual path diversify/internal/scada (guard-scoped).
package scada

import "diversify/internal/telemetry"

type engine struct {
	sink telemetry.Sink
}

func (e *engine) unguarded(ev telemetry.Event) {
	e.sink.Emit(ev) // want "not behind a nil-sink guard"
}

func (e *engine) guarded(ev telemetry.Event) {
	if e.sink != nil {
		e.sink.Emit(ev)
	}
}

func (e *engine) guardedInChain(ev telemetry.Event, on bool) {
	if on && e.sink != nil {
		e.sink.Emit(ev)
	}
}

func (e *engine) earlyReturn(ev telemetry.Event) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(ev)
}

func (e *engine) elseBranch(ev telemetry.Event) {
	if e.sink == nil {
		_ = ev
	} else {
		e.sink.Emit(ev)
	}
}

func (e *engine) wrongGuard(ev telemetry.Event, other telemetry.Sink) {
	if other != nil {
		e.sink.Emit(ev) // want "not behind a nil-sink guard"
	}
}

func (e *engine) guardedClosure(ev telemetry.Event) func() {
	if e.sink == nil {
		return func() {}
	}
	return func() { e.sink.Emit(ev) }
}
