// The job lifecycle after admission, shared by both transports: startRun
// moves a dequeued job to running, runSpec (exec.go) executes it, and settle
// moves it to its terminal state. The in-process pool below calls the three
// directly; the fleet lease handlers (fleet.go) call startRun when an
// external fpgaprw worker leases a job and settle when it completes, so a
// job reaches the WAL, the result cache and its event stream the same way
// wherever it ran. Each local run threads the job's cancel channel and event
// hub into the optimizer, so DELETE stops a run at the next temperature
// boundary and subscribers watch per-temperature progress live.
package server

import (
	"encoding/json"
	"errors"
	"sync/atomic"

	"repro/internal/store"
)

// worker is one in-process pool goroutine: it drains the scheduler until
// Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.Dequeue(s.quit)
		if !ok {
			return
		}
		if s.startRun(j) {
			res, err := runSpec(j.spec, j.cancel, j.hub)
			s.settle(j, res, err)
		}
	}
}

// startRun moves a dequeued job from queued to running, journals the
// transition and counts the optimizer run. It returns false when the job was
// canceled while queued; the caller then skips it.
func (s *Server) startRun(j *Job) bool {
	if !j.beginRunning() {
		return false
	}
	s.journal(store.Record{Kind: store.KindRunning, Job: j.ID, Key: j.Key})
	atomic.AddInt64(&s.runs, 1)
	return true
}

// settle moves a job to its terminal state from a run's outcome, journaling
// it, and returns that state: done with res when err is nil, canceled when
// err is errCanceled, failed otherwise. A done result racing a cancel request
// is reported canceled rather than published. The durability order of done
// matters: the layout blob is written through the cache *before* the done
// record is appended, so a journaled done always has (or at worst has since
// evicted) its blob.
func (s *Server) settle(j *Job, res *JobResult, err error) JobState {
	switch {
	case err == nil && !j.cancelRequested():
		s.cache.put(j.Key, res)
		j.finishTerminal(StateDone, res, "")
		if s.store != nil {
			data, _ := json.Marshal(journalCompletion{
				Design: j.spec.designName(),
				Cells:  j.spec.nl.NumCells(),
				Nets:   j.spec.nl.NumNets(),
				Stats:  res.Stats,
			})
			s.journal(store.Record{Kind: store.KindDone, Job: j.ID, Key: j.Key, Data: data})
		}
		return StateDone
	case err != nil && !errors.Is(err, errCanceled):
		j.finishTerminal(StateFailed, nil, err.Error())
		s.journal(store.Record{Kind: store.KindFailed, Job: j.ID, Key: j.Key, Data: []byte(err.Error())})
		return StateFailed
	default:
		j.finishTerminal(StateCanceled, nil, "")
		s.journalCanceled(j)
		return StateCanceled
	}
}

// cancelJob applies a client's cancel to one job, for DELETE on the job or on
// its group. A job canceled straight out of the queue is journaled here; a
// running job's record is journaled by settle once its run stops.
func (s *Server) cancelJob(j *Job) {
	if j.requestCancel() && j.State() == StateCanceled {
		s.journalCanceled(j)
	}
}

// journalCanceled journals a canceled job's terminal record. Only client
// cancellations are journaled: a shutdown interrupt leaves the submitted
// record pending so the next process life re-runs the job.
func (s *Server) journalCanceled(j *Job) {
	if j.userCanceled() {
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
	}
}
