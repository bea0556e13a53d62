package core

// Fault selects a deliberately injected implementation defect, reproducing
// the paper's §IV-A mutation testing ("we select a line in the Smart FIFO
// implementation, we modify something, we run the test suite again and
// check that at least one test fails") in a mechanized, reproducible form.
// The test suite asserts that every fault is caught by at least one
// validation test.
type Fault int

const (
	// FaultNone is the correct implementation.
	FaultNone Fault = iota
	// FaultNoReaderAdvance skips advancing the reader's local clock to
	// the insertion date: the reader consumes data "before it arrives",
	// as in the broken Fig. 3 execution.
	FaultNoReaderAdvance
	// FaultNoWriterAdvance skips advancing the writer's local clock to
	// the freeing date: the writer overwrites cells the real FIFO had
	// not yet freed.
	FaultNoWriterAdvance
	// FaultInsertDateNow stamps cells with the global date instead of
	// the writer's local date.
	FaultInsertDateNow
	// FaultNotifyNow fires the external NotEmpty/NotFull events at the
	// internal state-change date instead of delaying them to the
	// insertion/freeing date.
	FaultNotifyNow
	// FaultEmptyIgnoresDates makes IsEmpty test only internal occupancy,
	// dropping the second of the two §III-B tests.
	FaultEmptyIgnoresDates
	// FaultSizeIgnoresDates makes the monitor Size return the internal
	// occupancy, dropping the four-rule interpretation of §III-C.
	FaultSizeIgnoresDates
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultNoReaderAdvance:
		return "no-reader-advance"
	case FaultNoWriterAdvance:
		return "no-writer-advance"
	case FaultInsertDateNow:
		return "insert-date-now"
	case FaultNotifyNow:
		return "notify-now"
	case FaultEmptyIgnoresDates:
		return "empty-ignores-dates"
	case FaultSizeIgnoresDates:
		return "size-ignores-dates"
	}
	return "unknown"
}

// AllFaults lists every injectable fault (excluding FaultNone).
var AllFaults = []Fault{
	FaultNoReaderAdvance,
	FaultNoWriterAdvance,
	FaultInsertDateNow,
	FaultNotifyNow,
	FaultEmptyIgnoresDates,
	FaultSizeIgnoresDates,
}

// SetFault injects fault ft into the channel. Tests only.
func (f *SmartFIFO[T]) SetFault(ft Fault) { f.w.fault, f.r.fault = ft, ft }
