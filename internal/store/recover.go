package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/scenario"
)

// JobState is a journaled job's replayed lifecycle stage.
type JobState string

const (
	// JobRunning means the log holds a submission but no terminal
	// record: the process died mid-campaign and the job should resume.
	JobRunning JobState = "running"
	// JobFinished means the job completed its results document.
	JobFinished JobState = "finished"
	// JobCancelled means the job was explicitly cancelled; recovery
	// must NOT resume it.
	JobCancelled JobState = "cancelled"
)

// JobRecord is one replayed campaign submission.
type JobRecord struct {
	// ID is the engine job id ("c3"); Name echoes the set name.
	ID   string
	Name string
	// Points and Total echo the expansion sizes at submission.
	Points int
	Total  int
	// Spec is the full submitted Set document, re-expanded on resume.
	Spec json.RawMessage
	// State is the replayed lifecycle stage (terminal records latch:
	// the first one wins).
	State JobState
}

// Recovered is what a journal scan rebuilds.
type Recovered struct {
	// Jobs holds every journaled submission in submission order.
	Jobs []*JobRecord
	// Points is the cross-restart cache: every journaled deterministic
	// outcome, keyed by canonical scenario hash.
	Points map[string]scenario.Outcome
	// Records counts valid replayed records; Segments counts scanned
	// files; TornTails counts truncated partial tail records.
	Records   int
	Segments  int
	TornTails int

	byID map[string]*JobRecord
}

func newRecovered() *Recovered {
	return &Recovered{
		Points: map[string]scenario.Outcome{},
		byID:   map[string]*JobRecord{},
	}
}

// Interrupted returns the jobs the crash cut short, in submission order.
func (r *Recovered) Interrupted() []*JobRecord {
	var out []*JobRecord
	for _, j := range r.Jobs {
		if j.State == JobRunning {
			out = append(out, j)
		}
	}
	return out
}

// apply folds one decoded record into the replay state.
func (r *Recovered) apply(typ byte, body []byte) error {
	switch typ {
	case recJobSubmitted:
		var b jobSubmittedBody
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("store: bad job-submitted record: %w", err)
		}
		if _, dup := r.byID[b.ID]; dup {
			return fmt.Errorf("store: duplicate submission record for job %s", b.ID)
		}
		j := &JobRecord{ID: b.ID, Name: b.Name, Points: b.Points,
			Total: b.Total, Spec: b.Spec, State: JobRunning}
		r.Jobs = append(r.Jobs, j)
		r.byID[b.ID] = j
	case recPointCompleted:
		var b pointCompletedBody
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("store: bad point-completed record: %w", err)
		}
		if b.Outcome != nil {
			r.Points[b.Hash] = *b.Outcome
		}
	case recJobFinished, recJobCancelled:
		var b jobMarkBody
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("store: bad job terminal record: %w", err)
		}
		j, ok := r.byID[b.ID]
		if !ok {
			// A terminal record whose submission fell in a lost tail of
			// an earlier store generation; nothing to latch.
			return nil
		}
		if j.State == JobRunning { // terminal records latch, first wins
			if typ == recJobFinished {
				j.State = JobFinished
			} else {
				j.State = JobCancelled
			}
		}
	default:
		return fmt.Errorf("store: unknown record type %d", typ)
	}
	r.Records++
	return nil
}

// replaySegment scans one segment file into rec and returns the size of
// its valid prefix. In the final segment a torn tail — a partial header,
// a length running past EOF, or a checksum mismatch on the last frame —
// is truncated off the file and counted; anywhere else it is corruption
// and an error.
func replaySegment(path string, final bool, rec *Recovered) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	rec.Segments++
	off := int64(0)
	torn := func(reason string) (int64, error) {
		if !final {
			return 0, fmt.Errorf("store: %s: corrupt record at offset %d (%s) in a non-final segment", path, off, reason)
		}
		if err := os.Truncate(path, off); err != nil {
			return 0, fmt.Errorf("store: truncating torn tail: %w", err)
		}
		rec.TornTails++
		return off, nil
	}
	for {
		remain := int64(len(data)) - off
		if remain == 0 {
			return off, nil // clean end
		}
		if remain < headerBytes {
			return torn("partial header")
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordBytes {
			return torn("implausible length")
		}
		if remain < headerBytes+n {
			return torn("payload past EOF")
		}
		payload := data[off+headerBytes : off+headerBytes+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			// A checksum mismatch invalidates the framing from here on:
			// in the final segment that is the torn tail, elsewhere it
			// is corruption.
			return torn("checksum mismatch")
		}
		if err := rec.apply(payload[0], payload[1:]); err != nil {
			return 0, fmt.Errorf("%w (%s offset %d)", err, path, off)
		}
		off += headerBytes + n
	}
}

// Hashes returns the recovered point hashes, sorted — a deterministic
// view for tests and logs.
func (r *Recovered) Hashes() []string {
	out := make([]string, 0, len(r.Points))
	for h := range r.Points {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
