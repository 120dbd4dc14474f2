// Package server turns the placement flow into a long-running
// multi-tenant job service: clients submit designs (a Bookshelf .aux
// on disk, uploaded Bookshelf file contents, or a synthetic-circuit
// spec), a bounded scheduler runs at most MaxConcurrent placements at
// a time with a per-job gradient-kernel worker budget, and every other
// job waits in a priority queue.
//
// The scheduler is preemptive: when a higher-priority job is waiting
// and every slot is busy, the lowest-priority running job is stopped
// through its flow context. Cancellation makes the flow persist a
// final mid-stage checkpoint (see core.PlaceContext), so the preempted
// job re-enters the queue and later resumes from exactly the iteration
// it was stopped at — the finished placement, including its per-stage
// golden-trace digests, is bitwise-identical to a never-preempted run.
// The same mechanism serves client cancellation and server shutdown;
// context.Cause distinguishes the three.
//
// All scheduling state lives behind one mutex and transitions happen
// at job start/finish and submit/cancel, so there is no scheduler
// goroutine to leak or to race with shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"eplace/internal/bookshelf"
	"eplace/internal/checkpoint"
	"eplace/internal/core"
	"eplace/internal/eco"
	"eplace/internal/metrics"
	"eplace/internal/netlist"
	"eplace/internal/synth"
	"eplace/internal/telemetry"
)

// Config sizes the job server.
type Config struct {
	// MaxConcurrent bounds simultaneously running placements (default 2).
	MaxConcurrent int
	// WorkersPerJob is the gradient-kernel worker budget each running
	// job gets (default 1: jobs parallelize across slots, not within
	// them). A JobSpec may request fewer but never more.
	WorkersPerJob int
	// CheckpointEvery is the mid-stage snapshot cadence, in GP
	// iterations, for every job (default 25). Snapshots bound how much
	// work a preemption can lose and how stale a fetched checkpoint is;
	// cancellation additionally writes a final snapshot regardless.
	CheckpointEvery int
	// QueueLimit bounds jobs that are queued, preempted or running;
	// submits beyond it are rejected with ErrQueueFull (default 1024).
	QueueLimit int
	// Dir is the root directory for per-job state (checkpoints, traces,
	// results). Required.
	Dir string
	// Log, when non-nil, receives one line per scheduling event.
	Log io.Writer
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.WorkersPerJob <= 0 {
		c.WorkersPerJob = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
}

// JobSpec is a placement request. Exactly one design source must be
// set: Synth, AuxPath, or Files.
type JobSpec struct {
	// Synth generates a synthetic circuit server-side. The same spec
	// always yields the same circuit, which is what lets a preempted
	// job rebuild its design for the resumed segment.
	Synth *synth.Spec `json:"synth,omitempty"`
	// AuxPath names a Bookshelf .aux readable by the server process.
	AuxPath string `json:"aux_path,omitempty"`
	// Files uploads a Bookshelf design inline: name -> contents. Aux
	// names the entry to start from; defaults to the single *.aux file.
	Files map[string]string `json:"files,omitempty"`
	Aux   string            `json:"aux,omitempty"`
	// ECO chains an incremental re-placement off a completed job's
	// pinned final checkpoint instead of naming a design source.
	ECO *ECOSpec `json:"eco,omitempty"`

	// Priority orders the queue; higher runs first and may preempt
	// strictly lower. Default 0.
	Priority int `json:"priority,omitempty"`
	// Workers caps this job's gradient-kernel workers below the
	// server's per-job budget (0 = use the full budget).
	Workers int `json:"workers,omitempty"`

	// GridM, MaxIters and GPOnly forward to core.Options/FlowOptions.
	GridM    int  `json:"grid,omitempty"`
	MaxIters int  `json:"max_iters,omitempty"`
	GPOnly   bool `json:"gp_only,omitempty"`
}

// ECOSpec is the server's incremental-re-placement job kind: apply the
// edit script to the design of a completed job and warm-start from that
// job's final placement.
type ECOSpec struct {
	// FromJob is the completed job whose placement is edited.
	FromJob string `json:"from_job"`
	// Edits is the edit script (see eco.Script).
	Edits eco.Script `json:"edits"`
	// MaxIters bounds the incremental GP stage (0 = eGP's default, 600).
	MaxIters int `json:"max_iters,omitempty"`
}

func (s *JobSpec) validate() error {
	n := 0
	if s.Synth != nil {
		n++
	}
	if s.AuxPath != "" {
		n++
	}
	if len(s.Files) > 0 {
		n++
	}
	if s.ECO != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("server: spec needs exactly one of synth, aux_path, files, eco (got %d)", n)
	}
	if s.ECO != nil && s.ECO.FromJob == "" {
		return fmt.Errorf("server: eco spec needs from_job")
	}
	if s.Synth != nil && s.Synth.NumCells <= 0 {
		return fmt.Errorf("server: synth spec needs NumCells > 0")
	}
	if len(s.Files) > 0 && s.auxFile() == "" {
		return fmt.Errorf("server: files upload has no .aux entry")
	}
	return nil
}

// auxFile resolves the .aux entry of a Files upload.
func (s *JobSpec) auxFile() string {
	if s.Aux != "" {
		return s.Aux
	}
	names := make([]string, 0, len(s.Files))
	for name := range s.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasSuffix(name, ".aux") {
			return name
		}
	}
	return ""
}

// JobState is a job's lifecycle state.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StatePreempted JobState = "preempted" // checkpointed, waiting to resume
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// terminal reports whether the state can never change again.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// waiting reports whether the scheduler may start (or resume) the job.
func (s JobState) waiting() bool {
	return s == StateQueued || s == StatePreempted
}

// StageSeconds is one stage's wall time in a job result, kept as an
// ordered list so no stage can be silently dropped.
type StageSeconds struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// JobResult is the scorecard of a finished job.
type JobResult struct {
	Design     string         `json:"design"`
	Cells      int            `json:"cells"`
	Nets       int            `json:"nets"`
	HPWL       float64        `json:"hpwl"`
	Overflow   float64        `json:"tau"`
	Legal      bool           `json:"legal"`
	MixedSize  bool           `json:"mixed_size,omitempty"`
	Iterations map[string]int `json:"iterations,omitempty"`
	Stages     []StageSeconds `json:"stages,omitempty"`
	// Digests are the per-stage golden-trace hashes; identical for a
	// preempted-and-resumed job and an uninterrupted run of the same
	// design (the service's determinism contract).
	Digests []telemetry.StageDigest `json:"digests,omitempty"`
	// Seconds is placement wall time summed over all run segments.
	Seconds float64 `json:"seconds"`
}

// JobStatus is a point-in-time view of a job.
type JobStatus struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Design    string     `json:"design"`
	Priority  int        `json:"priority"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Preemptions counts scheduler preemptions; Resumes counts run
	// segments that re-entered the flow from a checkpoint.
	Preemptions int    `json:"preemptions,omitempty"`
	Resumes     int    `json:"resumes,omitempty"`
	Error       string `json:"error,omitempty"`
	// Live progress of the current (or last) run segment.
	Stage     string  `json:"stage,omitempty"`
	Iteration int     `json:"iter,omitempty"`
	HPWL      float64 `json:"hpwl,omitempty"`
	Overflow  float64 `json:"tau,omitempty"`
	// RunSeconds is placement wall time spent so far (all segments).
	RunSeconds float64    `json:"run_seconds,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

// Stats summarizes the server.
type Stats struct {
	MaxConcurrent int `json:"max_concurrent"`
	WorkersPerJob int `json:"workers_per_job"`
	Jobs          int `json:"jobs"`
	Running       int `json:"running"`
	Waiting       int `json:"waiting"`
	Done          int `json:"done"`
	Failed        int `json:"failed"`
	Canceled      int `json:"canceled"`
	// Preemptions counts scheduler preemptions across all jobs.
	Preemptions int `json:"preemptions"`
}

// Sentinel errors of the public API.
var (
	ErrNotFound  = errors.New("server: no such job")
	ErrQueueFull = errors.New("server: queue full")
	ErrClosed    = errors.New("server: shutting down")
	// ErrCheckpointExpired rejects an ECO submission whose parent job
	// has no loadable final checkpoint (pre-pinning job directory, or
	// state cleaned up out-of-band).
	ErrCheckpointExpired = errors.New("server: checkpoint expired")
)

// Cancellation causes, distinguished via context.Cause when a run
// segment comes back with core.ErrCanceled.
var (
	errPreempted    = errors.New("server: preempted by scheduler")
	errClientCancel = errors.New("server: canceled by client")
	errShutdown     = errors.New("server: server shutdown")
)

// job is the scheduler's bookkeeping for one submission. All mutable
// fields are guarded by Server.mu; spec, id, seq and dir are immutable
// after Submit.
type job struct {
	id   string
	seq  int
	spec JobSpec
	dir  string

	// ECO lineage, captured at Submit and immutable after: the root
	// design source (a non-ECO spec plus its job dir, for uploaded
	// files), the edit scripts of every ancestor ECO job in order, and
	// the parent's checkpoint directory. Rebuilding root + ancestor
	// edits reproduces the parent's design structure, which the parent
	// checkpoint's fingerprint verifies before positions are restored.
	baseSpec      JobSpec
	baseDir       string
	priorEdits    []eco.Script
	parentCkptDir string

	state       JobState
	preempting  bool // cancel(errPreempted) issued, runJob not yet back
	errMsg      string
	preemptions int
	resumes     int
	submitted   time.Time
	started     time.Time
	finished    time.Time
	runTotal    time.Duration
	cancel      context.CancelCauseFunc // non-nil while running
	result      *JobResult

	// ring buffers live telemetry across run segments; rec is the
	// current segment's recorder (progress snapshots).
	ring *telemetry.RingSink
	rec  *telemetry.Recorder
	mgr  *checkpoint.Manager
}

// Server is the placement job scheduler.
type Server struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order, for listings
	seq     int
	running int
	closed  bool
	preempt int // total preemptions
	wg      sync.WaitGroup
}

// New creates a server rooted at cfg.Dir.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating %s: %w", cfg.Dir, err)
	}
	return &Server{cfg: cfg, jobs: map[string]*job{}}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "server: "+format+"\n", args...)
	}
}

// Submit enqueues a job and returns its initial status. The scheduler
// starts it immediately when a slot is free.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	live := 0
	for _, j := range s.jobs {
		if !j.state.terminal() {
			live++
		}
	}
	if live >= s.cfg.QueueLimit {
		return JobStatus{}, ErrQueueFull
	}
	var baseSpec JobSpec
	var baseDir string
	var priorEdits []eco.Script
	var parentCkptDir string
	if spec.ECO != nil {
		p := s.jobs[spec.ECO.FromJob]
		if p == nil {
			return JobStatus{}, fmt.Errorf("%w: eco parent %q", ErrNotFound, spec.ECO.FromJob)
		}
		if p.state != StateDone {
			return JobStatus{}, fmt.Errorf("server: eco parent %s is %s, not done", p.id, p.state)
		}
		if !hasFinalCheckpoint(p.dir) {
			return JobStatus{}, fmt.Errorf("%w: job %s has no loadable final checkpoint", ErrCheckpointExpired, p.id)
		}
		if p.spec.ECO != nil {
			baseSpec, baseDir = p.baseSpec, p.baseDir
			priorEdits = append(append([]eco.Script(nil), p.priorEdits...), p.spec.ECO.Edits)
		} else {
			baseSpec, baseDir = p.spec, p.dir
		}
		parentCkptDir = filepath.Join(p.dir, "ckpt")
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	dir := filepath.Join(s.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return JobStatus{}, fmt.Errorf("server: job dir: %w", err)
	}
	if len(spec.Files) > 0 {
		ddir := filepath.Join(dir, "design")
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return JobStatus{}, fmt.Errorf("server: design dir: %w", err)
		}
		for name, content := range spec.Files {
			if name != filepath.Base(name) {
				return JobStatus{}, fmt.Errorf("server: file name %q must be a bare name", name)
			}
			if err := os.WriteFile(filepath.Join(ddir, name), []byte(content), 0o644); err != nil {
				return JobStatus{}, fmt.Errorf("server: writing upload: %w", err)
			}
		}
	}
	mgr, err := checkpoint.NewManager(filepath.Join(dir, "ckpt"))
	if err != nil {
		return JobStatus{}, err
	}
	j := &job{
		id:            id,
		seq:           s.seq,
		spec:          spec,
		dir:           dir,
		baseSpec:      baseSpec,
		baseDir:       baseDir,
		priorEdits:    priorEdits,
		parentCkptDir: parentCkptDir,
		state:         StateQueued,
		submitted:     time.Now(),
		ring:          telemetry.NewRingSink(1024),
		mgr:           mgr,
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.logf("%s submitted (%s, priority %d)", id, j.designLabel(), spec.Priority)
	s.scheduleLocked()
	return s.statusLocked(j), nil
}

// designLabel names the job's design source for logs and status.
func (j *job) designLabel() string {
	switch {
	case j.spec.ECO != nil:
		return "eco(" + j.spec.ECO.FromJob + ")"
	case j.spec.Synth != nil:
		if j.spec.Synth.Name != "" {
			return j.spec.Synth.Name
		}
		return fmt.Sprintf("synth-%d", j.spec.Synth.NumCells)
	case j.spec.AuxPath != "":
		return filepath.Base(j.spec.AuxPath)
	default:
		return j.spec.auxFile()
	}
}

// Cancel stops a job. A waiting job transitions to canceled directly;
// a running one is stopped through its flow context (it writes a final
// checkpoint first, then transitions). Cancel of a terminal job is a
// no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	switch {
	case j.state.waiting():
		j.state = StateCanceled
		j.errMsg = "canceled before running"
		j.finished = time.Now()
		s.logf("%s canceled while waiting", id)
		s.scheduleLocked()
	case j.state == StateRunning && j.cancel != nil:
		j.preempting = false
		j.cancel(errClientCancel)
		s.logf("%s cancel requested", id)
	}
	return s.statusLocked(j), nil
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// Stats summarizes the scheduler.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		MaxConcurrent: s.cfg.MaxConcurrent,
		WorkersPerJob: s.cfg.WorkersPerJob,
		Jobs:          len(s.order),
		Preemptions:   s.preempt,
	}
	for _, j := range s.order {
		switch {
		case j.state == StateRunning:
			st.Running++
		case j.state.waiting():
			st.Waiting++
		case j.state == StateDone:
			st.Done++
		case j.state == StateFailed:
			st.Failed++
		case j.state == StateCanceled:
			st.Canceled++
		}
	}
	return st
}

// Ring exposes a job's live telemetry ring (nil for unknown jobs).
func (s *Server) Ring(id string) *telemetry.RingSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j.ring
	}
	return nil
}

// JobDir returns a job's state directory ("" for unknown jobs). The
// HTTP layer serves trace/result/checkpoint artifacts out of it.
func (s *Server) JobDir(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j.dir
	}
	return ""
}

// Close stops accepting jobs, cancels every running placement (each
// writes a final checkpoint and parks as preempted), and waits for
// them to drain. Waiting jobs stay queued; nothing restarts.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for _, j := range s.order {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel(errShutdown)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// statusLocked snapshots a job. Caller holds s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Design:      j.designLabel(),
		Priority:    j.spec.Priority,
		Submitted:   j.submitted,
		Preemptions: j.preemptions,
		Resumes:     j.resumes,
		Error:       j.errMsg,
		RunSeconds:  j.runTotal.Seconds(),
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if snap := j.rec.Snapshot(); snap.Samples > 0 {
		st.Stage = snap.Stage
		st.Iteration = snap.Iteration
		st.HPWL = snap.HPWL
		st.Overflow = snap.Overflow
	}
	return st
}

// --- Scheduling. All *Locked methods run under s.mu. ---

// bestWaitingLocked picks the next job to start: highest priority,
// then oldest submission.
func (s *Server) bestWaitingLocked() *job {
	var best *job
	for _, j := range s.order {
		if !j.state.waiting() {
			continue
		}
		if best == nil || j.spec.Priority > best.spec.Priority {
			best = j
		}
	}
	return best
}

// preemptVictimLocked picks the running job to stop for a waiting job
// of the given priority: the lowest-priority running job, newest
// submission on ties — and only if strictly lower-priority than the
// waiting job, which is what makes preemption converge (a preempted
// job can never bounce right back and preempt its preemptor).
func (s *Server) preemptVictimLocked(priority int) *job {
	var victim *job
	for _, j := range s.order {
		if j.state != StateRunning || j.preempting {
			continue
		}
		if victim == nil || j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	if victim == nil || victim.spec.Priority >= priority {
		return nil
	}
	return victim
}

// scheduleLocked fills free slots with the best waiting jobs, then —
// if the queue is still backed up behind full slots — preempts one
// strictly-lower-priority running job. It is called at every state
// transition (submit, cancel, job completion), so preemption drains
// one victim per transition until the high-priority backlog fits.
func (s *Server) scheduleLocked() {
	if s.closed {
		return
	}
	for s.running < s.cfg.MaxConcurrent {
		j := s.bestWaitingLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
	if waiter := s.bestWaitingLocked(); waiter != nil {
		if v := s.preemptVictimLocked(waiter.spec.Priority); v != nil {
			v.preempting = true
			v.preemptions++
			s.preempt++
			s.logf("%s preempted for %s (priority %d < %d)",
				v.id, waiter.id, v.spec.Priority, waiter.spec.Priority)
			v.cancel(errPreempted)
		}
	}
}

// startLocked launches one run segment for a waiting job.
func (s *Server) startLocked(j *job) {
	resume := j.state == StatePreempted
	j.state = StateRunning
	j.preempting = false
	if j.started.IsZero() {
		j.started = time.Now()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	s.running++
	s.wg.Add(1)
	s.logf("%s starting (resume=%v)", j.id, resume)
	go s.runJob(j, ctx, cancel, resume)
}

// buildDesign materializes the job's design. Called once per run
// segment: a resumed segment rebuilds the identical design (synthetic
// circuits are pure functions of their spec; Bookshelf inputs are
// re-read from the job dir) and the checkpoint fingerprint verifies
// the match before any positions are restored.
func (j *job) buildDesign() (*netlist.Design, error) {
	if j.spec.ECO != nil {
		// The parent's design is its root source plus every ancestor
		// edit script, replayed in order — a pure function of the specs,
		// like a synthetic circuit is of its generator spec.
		d, err := buildDesignFrom(j.baseSpec, j.baseDir)
		if err != nil {
			return nil, err
		}
		for i := range j.priorEdits {
			if _, err := eco.Apply(d, &j.priorEdits[i]); err != nil {
				return nil, fmt.Errorf("server: replaying ancestor edit %d: %w", i, err)
			}
		}
		return d, nil
	}
	return buildDesignFrom(j.spec, j.dir)
}

// buildDesignFrom materializes a non-ECO spec's design; dir is the
// spec's own job directory (uploaded files live under it).
func buildDesignFrom(spec JobSpec, dir string) (*netlist.Design, error) {
	var d *netlist.Design
	var err error
	switch {
	case spec.Synth != nil:
		d = synth.Generate(*spec.Synth)
	case spec.AuxPath != "":
		d, err = bookshelf.ReadAux(spec.AuxPath)
	default:
		d, err = bookshelf.ReadAux(filepath.Join(dir, "design", spec.auxFile()))
	}
	if err != nil {
		return nil, err
	}
	return d, d.Validate()
}

// hasFinalCheckpoint reports whether a job directory still holds a
// loadable end-of-run checkpoint: the pinned final, or latest for a
// finished job whose PinFinal failed (runJob logs that and carries on).
func hasFinalCheckpoint(jobDir string) bool {
	for _, name := range []string{checkpoint.FinalName, checkpoint.LatestName} {
		if _, err := os.Stat(filepath.Join(jobDir, "ckpt", name)); err == nil {
			return true
		}
	}
	return false
}

// runJob executes one run segment: build the design, optionally load
// the resume checkpoint, run the flow under the job's cancelable
// context, then classify the outcome under the scheduler lock.
func (s *Server) runJob(j *job, ctx context.Context, cancel context.CancelCauseFunc, resume bool) {
	defer s.wg.Done()
	defer cancel(nil)

	fail := func(err error) {
		s.mu.Lock()
		j.cancel = nil
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finished = time.Now()
		s.running--
		s.logf("%s failed: %v", j.id, err)
		s.scheduleLocked()
		s.mu.Unlock()
	}

	d, err := j.buildDesign()
	if err != nil {
		fail(err)
		return
	}

	workers := s.cfg.WorkersPerJob
	if j.spec.Workers > 0 && j.spec.Workers < workers {
		workers = j.spec.Workers
	}

	// Telemetry: the ring survives segments (live progress endpoint);
	// the JSONL trace appends, so the file holds the concatenated
	// per-iteration history of every segment.
	sinks := []telemetry.Sink{j.ring}
	tf, err := os.OpenFile(filepath.Join(j.dir, "trace.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		sinks = append(sinks, telemetry.NewJSONLSink(tf))
	}
	rec := telemetry.New(sinks...)
	rec.SetWorkers(workers)
	s.mu.Lock()
	j.rec = rec
	s.mu.Unlock()

	resumed := false
	t0 := time.Now()
	var res core.FlowResult
	var ecoRes core.ECOResult
	if j.spec.ECO != nil {
		// ECO segments are short and deterministic; a preempted one
		// simply restarts from the parent checkpoint.
		ecoRes, err = j.runECO(ctx, d, rec, workers)
	} else {
		fo := core.FlowOptions{
			GP: core.Options{
				GridM:           j.spec.GridM,
				MaxIters:        j.spec.MaxIters,
				Workers:         workers,
				Telemetry:       rec,
				CheckpointEvery: s.cfg.CheckpointEvery,
			},
			SkipLegalization: j.spec.GPOnly,
			Checkpoint:       j.mgr,
		}
		if resume {
			if st, lerr := j.mgr.Load(); lerr == nil && st.Validate(d) == nil {
				fo.Resume = st
				resumed = true
			}
			// No loadable checkpoint (preempted before the first boundary
			// snapshot): run from scratch, which is the same trajectory.
		}
		res, err = core.PlaceContext(ctx, d, fo)
	}
	// runTotal is written only by this job's (serialized) run segments,
	// so reading it outside the lock is race-free; the locked store
	// below publishes the new value to status readers.
	total := j.runTotal + time.Since(t0)
	rec.Close()
	var result *JobResult
	if err == nil {
		// Result assembly rasterizes the layout and writes artifacts;
		// keep that out of the scheduler lock.
		if j.spec.ECO != nil {
			result = j.finishECO(d, ecoRes, total)
		} else {
			result = j.finish(d, res, total)
		}
		// Pin the end-of-run checkpoint so history pruning can never
		// strand an ECO chain off this job.
		if perr := j.mgr.PinFinal(); perr != nil {
			s.logf("%s pin final checkpoint: %v", j.id, perr)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.runTotal = total
	if resumed {
		j.resumes++
	}
	s.running--
	cause := context.Cause(ctx)
	switch {
	case err == nil:
		j.result = result
		j.state = StateDone
		j.finished = time.Now()
		s.logf("%s done: HPWL %.6g legal=%v (%.2fs over %d segments)",
			j.id, result.HPWL, result.Legal, j.runTotal.Seconds(), j.resumes+1)
	case errors.Is(err, core.ErrCanceled) && errors.Is(cause, errPreempted):
		j.state = StatePreempted
		s.logf("%s parked (checkpointed mid-flow)", j.id)
	case errors.Is(err, core.ErrCanceled) && errors.Is(cause, errShutdown):
		// Checkpointed; a future server over the same Dir could resume
		// it, but this process is going away.
		j.state = StatePreempted
		j.errMsg = "interrupted by server shutdown"
	case errors.Is(err, core.ErrCanceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.finished = time.Now()
		s.logf("%s canceled", j.id)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finished = time.Now()
		s.logf("%s failed: %v", j.id, err)
	}
	s.scheduleLocked()
}

// finish assembles and persists the result artifacts of a completed
// job.
func (j *job) finish(d *netlist.Design, res core.FlowResult, total time.Duration) *JobResult {
	r := &JobResult{
		Legal:      res.Legal,
		MixedSize:  res.MixedSize,
		Iterations: map[string]int{"mGP": res.MGP.Iterations},
		Digests:    res.Digests,
	}
	if res.MixedSize {
		r.Iterations["cGP"] = res.CGP.Iterations
	}
	return j.complete(r, d, "ePlace", res.Stages, total)
}

// complete fills in r, which holds what its flow alone reports, with
// what every job reports: the design's size, its HPWL and overflow as
// placer's measured layout, the stage times and the run time; then it
// persists the result artifacts. Artifact write errors are not fatal:
// the placement itself succeeded and the result is served from memory.
func (j *job) complete(r *JobResult, d *netlist.Design, placer string, stages []core.StageSpan, total time.Duration) *JobResult {
	rep := metrics.Measure(d.Name, placer, d, j.spec.GridM, total.Seconds(), r.Legal)
	r.Design, r.Cells, r.Nets = d.Name, len(d.Cells), len(d.Nets)
	r.HPWL, r.Overflow, r.Seconds = rep.HPWL, rep.Overflow, total.Seconds()
	for _, st := range stages {
		r.Stages = append(r.Stages, StageSeconds{
			Name: st.Name, Seconds: st.Time.Seconds(),
		})
	}
	_ = bookshelf.WritePL(d, filepath.Join(j.dir, "result.pl"))
	if data, err := json.MarshalIndent(r, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(j.dir, "result.json"), data, 0o644)
	}
	return r
}

// runECO executes an incremental re-placement segment: load the
// parent's pinned final checkpoint, warm-start d (the rebuilt parent
// design) from it, apply this job's edit script, and re-place only the
// affected cells.
func (j *job) runECO(ctx context.Context, d *netlist.Design, rec *telemetry.Recorder, workers int) (core.ECOResult, error) {
	pmgr, err := checkpoint.NewManager(j.parentCkptDir)
	if err != nil {
		return core.ECOResult{}, err
	}
	st, err := pmgr.LoadFinal()
	if err != nil {
		return core.ECOResult{}, fmt.Errorf("%w: loading parent checkpoint: %v", ErrCheckpointExpired, err)
	}
	if err := core.WarmStart(d, st); err != nil {
		return core.ECOResult{}, err
	}
	prep, err := eco.Prepare(d, &j.spec.ECO.Edits, eco.PlanOptions{})
	if err != nil {
		return core.ECOResult{}, err
	}
	return core.PlaceECO(ctx, d, prep.Plan, core.ECOOptions{
		GP: core.Options{
			GridM:     j.spec.GridM,
			MaxIters:  j.spec.ECO.MaxIters,
			Workers:   workers,
			Telemetry: rec,
		},
		Checkpoint: j.mgr,
	})
}

// finishECO assembles and persists an ECO job's result artifacts.
func (j *job) finishECO(d *netlist.Design, res core.ECOResult, total time.Duration) *JobResult {
	return j.complete(&JobResult{
		Legal: res.Legal,
		Iterations: map[string]int{
			"eGP":     res.GP.Iterations,
			"active":  res.ActiveCells,
			"evicted": res.EvictedCells,
			"frozen":  res.FrozenCells,
		},
		Digests: res.Digests,
	}, d, "ePlace-ECO", res.Stages, total)
}
