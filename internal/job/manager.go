package job

// Manager is the job store + chunked executor. One mutex guards everything:
// the job table, the scheduler, and the WAL (appends and rotation), so
// "WAL write then in-memory update" is a single atomic step and there is no
// lock-ordering question between store and log. Chunk sampling — the long
// part — runs outside the lock; only the commit is serialized, and a chunk
// commit is one fsynced append (~ms) against chunk sample times of the same
// order or larger.
//
// Durability contract: a chunk becomes visible (counts merged, progress
// shown) only after its WAL record is on disk. Kill the process at any
// instant and restart: every committed chunk replays, the at-most-one
// in-flight chunk per job re-samples under its original rng.Stream(seed, i),
// and the final merged counts are bit-identical to an uninterrupted run.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"weaksim/internal/core"
	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
	"weaksim/internal/statevec"
)

// Executor tuning defaults.
const (
	// DefaultWorkers is the chunk-executor pool size.
	DefaultWorkers = 2
	// DefaultChunkShots is the checkpoint granularity of every new job:
	// core's one chunk size, so a job's chunks are core.TallyChunk's and its
	// counts equal core.CountsParallel's for the same (circuit, seed, shots).
	DefaultChunkShots = core.ChunkShots
	// DefaultRetainTerminal is how many terminal jobs stay queryable before
	// the oldest are evicted.
	DefaultRetainTerminal = 64
	// retryBackoff delays a chunk's reschedule after a transient failure
	// (queue full, snapshot flight abandoned).
	retryBackoff = 250 * time.Millisecond
)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the WAL directory. Empty runs the store in memory only: jobs
	// work but do not survive a restart.
	Dir string
	// Workers is the chunk-executor pool size (default DefaultWorkers).
	Workers int
	// TenantWeights maps tenant name to fair-share weight (absent = 1).
	TenantWeights map[string]int
	// MaxPerTenant is the non-terminal job quota per tenant (default
	// DefaultMaxPerTenant).
	MaxPerTenant int
	// RetainTerminal is how many terminal jobs stay queryable (default
	// DefaultRetainTerminal).
	RetainTerminal int
	// SegmentBytes is the WAL rotation threshold (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// Snapshot resolves a job's frozen sampler. Required.
	Snapshot SnapshotFunc
	// Metrics receives job_* series (nil disables).
	Metrics *obs.Registry
	// Recorder receives per-chunk trace spans (nil disables).
	Recorder *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.MaxPerTenant <= 0 {
		c.MaxPerTenant = DefaultMaxPerTenant
	}
	if c.RetainTerminal <= 0 {
		c.RetainTerminal = DefaultRetainTerminal
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	return c
}

// jobState is one job's live record. All fields are guarded by the Manager
// mutex except spec (immutable after submit) and trace (internally
// synchronized).
type jobState struct {
	spec  Spec
	state State

	counts     *core.Tally // merged tallies of completed chunks
	done       []bool      // per-chunk completion
	chunksDone int
	shotsDone  int
	recovered  int // chunks reconstructed from the WAL at startup
	executed   int // chunks sampled by this process

	inflight    bool
	cancelReq   bool
	cancelChunk context.CancelFunc // cancels the in-flight chunk, if any
	notBefore   time.Time          // transient-failure backoff gate
	enqueued    time.Time          // for priority aging

	errCode string
	errMsg  string

	trace     *obs.RequestTrace // chunk spans; its phase sums are PhaseNS
	updatedMS int64

	subs []*subscriber
}

func (j *jobState) nextChunk() int {
	for i, d := range j.done {
		if !d {
			return i
		}
	}
	return -1
}

// Manager owns the job table, scheduler, WAL, and worker pool.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*jobState
	ids   []string // insertion order, for List and rotation snapshots
	sched *sched
	w     *wal     // nil when Config.Dir is empty
	term  []string // terminal job IDs, oldest first (retention ring)

	stopping bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	mSubmitted, mCompleted, mFailed, mCancelled *obs.Counter
	mChunks, mQuota, mWALRecords, mWALErrors    *obs.Counter
	gActive, gInflight, gSegments, gWALBytes    *obs.Gauge
}

// NewManager builds a Manager; call Start before use.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		jobs:  make(map[string]*jobState),
		sched: newSched(cfg.TenantWeights, DefaultMaxInFlightPerTenant, DefaultAgingInterval),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.cancel = context.WithCancel(context.Background())

	reg := cfg.Metrics
	m.mSubmitted = reg.Counter("job_submitted_total")
	m.mCompleted = reg.Counter("job_completed_total")
	m.mFailed = reg.Counter("job_failed_total")
	m.mCancelled = reg.Counter("job_cancelled_total")
	m.mChunks = reg.Counter("job_chunks_done_total")
	m.mQuota = reg.Counter("job_quota_rejected_total")
	m.mWALRecords = reg.Counter("job_wal_records_total")
	m.mWALErrors = reg.Counter("job_wal_errors_total")
	m.gActive = reg.Gauge("job_active")
	m.gInflight = reg.Gauge("job_inflight_chunks")
	m.gSegments = reg.Gauge("job_wal_segments")
	m.gWALBytes = reg.Gauge("job_wal_bytes")
	obs.RegisterHelp("job_submitted_total", "Jobs accepted (WAL-persisted and enqueued).")
	obs.RegisterHelp("job_completed_total", "Jobs that finished every chunk.")
	obs.RegisterHelp("job_failed_total", "Jobs terminated by a deterministic verdict (MO/TO/internal).")
	obs.RegisterHelp("job_cancelled_total", "Jobs terminated by client request.")
	obs.RegisterHelp("job_chunks_done_total", "Chunk checkpoints committed (WAL fsync + merge).")
	obs.RegisterHelp("job_quota_rejected_total", "Submits rejected by the per-tenant quota (HTTP 429).")
	obs.RegisterHelp("job_wal_records_total", "Records appended to the job WAL.")
	obs.RegisterHelp("job_wal_errors_total", "Job WAL append/rotate failures.")
	obs.RegisterHelp("job_active", "Non-terminal jobs in the store.")
	obs.RegisterHelp("job_inflight_chunks", "Chunks currently executing.")
	obs.RegisterHelp("job_wal_segments", "Job WAL segment files on disk.")
	obs.RegisterHelp("job_wal_bytes", "Active job WAL segment size in bytes.")
	return m
}

// Start replays the WAL (when durable) and launches the worker pool.
func (m *Manager) Start() error {
	if m.cfg.Snapshot == nil {
		return errors.New("job: Config.Snapshot is required")
	}
	m.mu.Lock()
	if m.cfg.Dir != "" {
		w, records, salvaged, err := openWAL(m.cfg.Dir, m.cfg.SegmentBytes)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		m.w = w
		for _, rec := range records {
			m.applyLocked(rec)
		}
		m.finishReplayLocked()
		if salvaged {
			// Damage was repaired by quarantine/truncation: make the replayed
			// state durable again immediately.
			m.rotateLocked()
		}
		m.updateWALGaugesLocked()
	}
	workers := m.cfg.Workers
	m.mu.Unlock()

	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return nil
}

// Stop drains the executor: workers finish (and commit) their in-flight
// chunks, then exit. If ctx expires first, in-flight chunks are cancelled —
// they release without committing, which is exactly the ≤1-chunk loss the
// durability contract already budgets for.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.stopping = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.cancel()
		<-done
	}
	m.cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w != nil {
		err := m.w.close()
		m.w = nil
		return err
	}
	return nil
}

// ---- replay ----

// applyLocked folds one WAL record into the store. Replay is idempotent:
// duplicate submits and duplicate chunk records are skipped, and a
// checkpoint supersedes (never merges with) earlier chunk records.
func (m *Manager) applyLocked(rec Record) {
	switch rec.Type {
	case recSubmit:
		var spec Spec
		if json.Unmarshal(rec.Payload, &spec) != nil || spec.Validate() != nil {
			return
		}
		if _, ok := m.jobs[spec.ID]; ok {
			return
		}
		m.addJobLocked(spec)
	case recChunk:
		var cr chunkRecord
		if json.Unmarshal(rec.Payload, &cr) != nil {
			return
		}
		j, ok := m.jobs[cr.ID]
		if !ok || cr.Chunk < 0 || cr.Chunk >= len(j.done) || j.done[cr.Chunk] ||
			cr.Shots != j.spec.ChunkShotCount(cr.Chunk) {
			return
		}
		counts, err := decodeCounts(cr.Counts, j.spec.Qubits, cr.Shots)
		if err != nil {
			return
		}
		j.done[cr.Chunk] = true
		j.chunksDone++
		j.shotsDone += cr.Shots
		j.counts.Add(counts)
	case recState:
		var sr stateRecord
		if json.Unmarshal(rec.Payload, &sr) != nil {
			return
		}
		j, ok := m.jobs[sr.ID]
		if !ok || j.state.Terminal() || !sr.State.Terminal() {
			return
		}
		j.state = sr.State
		j.errCode, j.errMsg = sr.ErrCode, sr.Err
	case recCheckpoint:
		var cp checkpointRecord
		if json.Unmarshal(rec.Payload, &cp) != nil {
			return
		}
		j, ok := m.jobs[cp.ID]
		if !ok {
			return
		}
		done := make([]bool, j.spec.ChunksTotal())
		chunksDone, shotsDone := 0, 0
		for _, c := range cp.Done {
			if c < 0 || c >= len(done) || done[c] {
				continue
			}
			done[c] = true
			chunksDone++
			shotsDone += j.spec.ChunkShotCount(c)
		}
		counts, err := decodeCounts(cp.Counts, j.spec.Qubits, shotsDone)
		if err != nil {
			return
		}
		// Supersede: the checkpoint is the full merged state at compaction
		// time, not a delta.
		j.counts = core.NewTally(j.spec.Qubits, j.spec.Shots)
		j.counts.Add(counts)
		j.done, j.chunksDone, j.shotsDone = done, chunksDone, shotsDone
	}
}

// finishReplayLocked settles the replayed table: terminal jobs enter the
// retention ring, complete-but-unmarked jobs are finalized, and everything
// else is enqueued to resume.
func (m *Manager) finishReplayLocked() {
	now := time.Now()
	for _, id := range m.ids {
		j := m.jobs[id]
		j.recovered = j.chunksDone
		j.enqueued = now
		if j.state.Terminal() {
			m.sched.dequeue(j)
			m.term = append(m.term, id)
			continue
		}
		if j.chunksDone >= j.spec.ChunksTotal() {
			// Crash landed between the last chunk commit and its terminal
			// record (WAL append of the state failed): finish the transition.
			m.terminalizeLocked(j, StateCompleted, "", "")
			continue
		}
		if j.spec.Walk != core.WalkVersion {
			// The job's chunks so far were drawn under another walk: merging
			// this binary's chunks with them would be neither run's counts.
			m.failStaleWalkLocked(j)
			continue
		}
		if j.chunksDone > 0 {
			j.state = StateRunning
		} else {
			j.state = StateQueued
		}
	}
	m.gActive.Set(int64(m.activeLocked()))
	m.evictTerminalLocked()
}

// failStaleWalkLocked drops a replayed job's chunks and fails it with the
// config_changed verdict, before any chunk of it is drawn. An empty
// checkpoint ahead of the terminal record drops the chunks on every later
// replay too.
func (m *Manager) failStaleWalkLocked(j *jobState) {
	_ = m.appendLocked(mustRecord(recCheckpoint, checkpointRecord{ID: j.spec.ID, Done: []int{}, Counts: map[string]int{}}))
	j.counts = core.NewTally(j.spec.Qubits, j.spec.Shots)
	j.done = make([]bool, j.spec.ChunksTotal())
	j.chunksDone, j.shotsDone, j.recovered = 0, 0, 0
	m.terminalizeLocked(j, StateFailed, "config_changed",
		fmt.Sprintf("job: chunks drawn under walk version %d, this build walks version %d",
			j.spec.Walk, core.WalkVersion))
}

// ---- store API ----

// Submit validates, persists, and enqueues a job. The WAL append happens
// before the job becomes visible: an accepted submit survives a crash.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if spec.ID == "" {
		spec.ID = NewID()
	}
	if spec.ChunkShots <= 0 {
		spec.ChunkShots = DefaultChunkShots
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.CreatedUnixMS == 0 {
		spec.CreatedUnixMS = time.Now().UnixMilli()
	}
	spec.Walk = core.WalkVersion
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopping {
		return Status{}, ErrShutdown
	}
	if _, ok := m.jobs[spec.ID]; ok {
		return Status{}, errors.New("job: duplicate ID")
	}
	if m.tenantActiveLocked(spec.Tenant) >= m.cfg.MaxPerTenant {
		m.mQuota.Inc()
		return Status{}, ErrQuota
	}
	if err := m.appendLocked(mustRecord(recSubmit, spec)); err != nil {
		return Status{}, err
	}
	j := m.addJobLocked(spec)
	j.enqueued = time.Now()
	m.mSubmitted.Inc()
	m.gActive.Add(1)
	m.cond.Broadcast()
	return m.statusLocked(j), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns every known job, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.ids))
	for _, id := range m.ids {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	sort.SliceStable(out, func(i, k int) bool {
		return out[i].CreatedUnixMS > out[k].CreatedUnixMS
	})
	return out
}

// Result returns a completed job's merged counts, and the register width
// that renders them as bitstrings. The tally is the job's own, not a copy: a
// completed job's counts never change again (a late chunk commit is
// dropped), so callers read and format it without the manager's lock, and
// must not modify it.
func (m *Manager) Result(id string) (counts *core.Tally, qubits int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	if j.state != StateCompleted {
		return nil, 0, ErrNotCompleted
	}
	return j.counts, j.spec.Qubits, nil
}

// Cancel requests termination. Idempotent; an in-flight chunk is cancelled,
// an idle job transitions immediately.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	if j.state.Terminal() {
		return m.statusLocked(j), nil
	}
	j.cancelReq = true
	if j.inflight {
		if j.cancelChunk != nil {
			j.cancelChunk()
		}
		// The worker observes the cancellation and finishes the transition.
	} else {
		m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
	}
	return m.statusLocked(j), nil
}

// Subscribe opens a progress-event stream for a job. The returned cancel
// func must be called when the consumer goes away. The first frame is the
// current state; a terminal job yields exactly one (terminal) frame and a
// closed channel.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	sub := &subscriber{ch: make(chan Event, subscriberBuffer)}
	sub.push(m.eventLocked(j))
	if j.state.Terminal() {
		close(sub.ch)
		return sub.ch, func() {}, nil
	}
	j.subs = append(j.subs, sub)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, s := range j.subs {
			if s == sub {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
	return sub.ch, cancel, nil
}

// ---- internals ----

func (m *Manager) addJobLocked(spec Spec) *jobState {
	j := &jobState{
		spec:      spec,
		state:     StateQueued,
		counts:    core.NewTally(spec.Qubits, spec.Shots),
		done:      make([]bool, spec.ChunksTotal()),
		trace:     obs.StartRequest("", m.cfg.Recorder, nil),
		updatedMS: time.Now().UnixMilli(),
	}
	m.jobs[spec.ID] = j
	m.ids = append(m.ids, spec.ID)
	m.sched.enqueue(j)
	return j
}

func (m *Manager) tenantActiveLocked(tenant string) int {
	n := 0
	for _, id := range m.ids {
		j := m.jobs[id]
		if j.spec.Tenant == tenant && !j.state.Terminal() {
			n++
		}
	}
	return n
}

func (m *Manager) activeLocked() int {
	n := 0
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// appendLocked writes one WAL record (no-op when running in memory).
func (m *Manager) appendLocked(rec Record) error {
	if m.w == nil {
		return nil
	}
	if err := m.w.append(rec); err != nil {
		m.mWALErrors.Inc()
		return err
	}
	m.mWALRecords.Inc()
	m.updateWALGaugesLocked()
	return nil
}

func (m *Manager) updateWALGaugesLocked() {
	if m.w == nil {
		return
	}
	m.gSegments.Set(int64(m.w.segments()))
	m.gWALBytes.Set(m.w.size)
}

// rotateLocked compacts the WAL to the live state: per job a submit record,
// a checkpoint when chunks are done, and the terminal record if settled.
func (m *Manager) rotateLocked() {
	if m.w == nil {
		return
	}
	var snap []Record
	for _, id := range m.ids {
		j := m.jobs[id]
		snap = append(snap, mustRecord(recSubmit, j.spec))
		if j.chunksDone > 0 {
			var done []int
			for i, d := range j.done {
				if d {
					done = append(done, i)
				}
			}
			snap = append(snap, mustRecord(recCheckpoint, checkpointRecord{
				ID:     id,
				Done:   done,
				Counts: encodeCounts(j.counts),
			}))
		}
		if j.state.Terminal() {
			snap = append(snap, mustRecord(recState, stateRecord{
				ID:      id,
				State:   j.state,
				ErrCode: j.errCode,
				Err:     j.errMsg,
			}))
		}
	}
	if err := m.w.rotate(snap); err != nil {
		m.mWALErrors.Inc()
		return
	}
	m.updateWALGaugesLocked()
}

func (m *Manager) statusLocked(j *jobState) Status {
	return Status{
		ID:              j.spec.ID,
		State:           j.state,
		Tenant:          j.spec.Tenant,
		Priority:        PriorityName(j.spec.Priority),
		CircuitKey:      j.spec.Key,
		Qubits:          j.spec.Qubits,
		Shots:           j.spec.Shots,
		Seed:            j.spec.Seed,
		ChunkShots:      j.spec.ChunkShots,
		ChunksTotal:     j.spec.ChunksTotal(),
		ChunksDone:      j.chunksDone,
		ShotsDone:       j.shotsDone,
		ChunksRecovered: j.recovered,
		ChunksExecuted:  j.executed,
		ErrorCode:       j.errCode,
		Error:           j.errMsg,
		TraceID:         j.trace.ID().String(),
		CreatedUnixMS:   j.spec.CreatedUnixMS,
		UpdatedUnixMS:   j.updatedMS,
		PhaseNS:         j.phases(),
	}
}

// jobPhases are the phases a chunk is timed in; PhaseNS reports exactly
// these (not the root span Finish appends, nor the simulation spans a
// snapshot lookup records into the job's trace on a cache miss).
var jobPhases = []string{obs.PhaseSnapshot, obs.PhaseSample, obs.PhaseWAL}

// phases reads the job's per-phase time from its trace's running sums (nil
// before the first chunk span).
func (j *jobState) phases() map[string]int64 {
	if bd := j.trace.PhaseBreakdown(jobPhases...); len(bd) > 0 {
		return bd
	}
	return nil
}

func (m *Manager) eventLocked(j *jobState) Event {
	ev := Event{
		JobID:       j.spec.ID,
		State:       j.state,
		ChunksTotal: j.spec.ChunksTotal(),
		ChunksDone:  j.chunksDone,
		ShotsDone:   j.shotsDone,
		ErrorCode:   j.errCode,
		Error:       j.errMsg,
		Terminal:    j.state.Terminal(),
		PhaseNS:     j.phases(),
	}
	ev.Top = topCounts(j.counts, j.spec.Qubits, eventTopK)
	return ev
}

// publishLocked fans the job's current state out to subscribers. Terminal
// frames also close every stream.
func (m *Manager) publishLocked(j *jobState) {
	if len(j.subs) == 0 {
		return
	}
	ev := m.eventLocked(j)
	for _, s := range j.subs {
		s.push(ev)
	}
	if ev.Terminal {
		for _, s := range j.subs {
			close(s.ch)
		}
		j.subs = nil
	}
}

// terminalizeLocked performs a terminal transition: WAL record first, then
// the visible state, scheduler dequeue, retention, trace flush, and the
// final event frame.
func (m *Manager) terminalizeLocked(j *jobState, st State, code, msg string) {
	if j.state.Terminal() {
		return
	}
	// Best-effort persistence: a failed append leaves the job resumable
	// after restart (it will re-reach this verdict), which is strictly
	// safer than losing the WAL invariant.
	_ = m.appendLocked(mustRecord(recState, stateRecord{ID: j.spec.ID, State: st, ErrCode: code, Err: msg}))
	j.state = st
	j.errCode, j.errMsg = code, msg
	j.updatedMS = time.Now().UnixMilli()
	m.sched.dequeue(j)
	m.term = append(m.term, j.spec.ID)
	m.gActive.Add(-1)
	switch st {
	case StateCompleted:
		m.mCompleted.Inc()
		j.trace.Finish("job", 200)
	case StateFailed:
		m.mFailed.Inc()
		j.trace.Finish("job", 500)
	case StateCancelled:
		m.mCancelled.Inc()
		j.trace.Finish("job", 499)
	}
	m.publishLocked(j)
	m.evictTerminalLocked()
}

// evictTerminalLocked trims the terminal retention ring.
func (m *Manager) evictTerminalLocked() {
	for len(m.term) > m.cfg.RetainTerminal {
		id := m.term[0]
		m.term = m.term[1:]
		delete(m.jobs, id)
		for i, known := range m.ids {
			if known == id {
				m.ids = append(m.ids[:i], m.ids[i+1:]...)
				break
			}
		}
	}
}

// ---- executor ----

func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		if m.stopping {
			m.mu.Unlock()
			return
		}
		j := m.sched.pick(time.Now())
		if j == nil {
			m.cond.Wait()
			continue
		}
		chunk := j.nextChunk()
		if chunk < 0 {
			// All chunks done but not yet terminal — settled by the
			// committing worker; nothing for us.
			continue
		}
		j.inflight = true
		if j.state == StateQueued {
			j.state = StateRunning
		}
		t := m.sched.tenant(j.spec.Tenant)
		t.inflight++
		m.gInflight.Add(1)
		ctx, cancelChunk := context.WithCancel(m.baseCtx)
		j.cancelChunk = cancelChunk
		m.mu.Unlock()

		m.runChunk(ctx, j, chunk)
		cancelChunk()

		m.mu.Lock()
		j.inflight = false
		j.cancelChunk = nil
		// Cancel may land in the window after commitChunk released the lock
		// but before this reset: it sees inflight=true and defers the
		// transition to us, yet the chunk it cancelled is already done. The
		// scheduler never picks a cancel-requested job, so settle it here or
		// it stays "running" forever.
		if j.cancelReq && !j.state.Terminal() {
			m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
		}
		t.inflight--
		m.gInflight.Add(-1)
		// A finished chunk may unblock this job for another worker, and the
		// tenant's in-flight slot is free again.
		m.cond.Broadcast()
	}
}

// runChunk executes one chunk outside the lock: resolve the frozen snapshot,
// walk ChunkShotCount(chunk) shots under rng.Stream(seed, chunk), then
// commit (WAL append + merge) under the lock. Each phase is one span in the
// job's trace.
func (m *Manager) runChunk(ctx context.Context, j *jobState, chunk int) {
	spec := j.spec
	if err := fault.Hit(fault.JobChunkSample); err != nil {
		j.trace.Event(obs.PhaseSample, "chunk-fault", map[string]any{"chunk": chunk, "err": err.Error()})
		m.finishChunkErr(j, chunk, err)
		return
	}
	ctx = obs.ContextWithTrace(ctx, j.trace)

	sp := obs.StartSpan(nil, j.trace, obs.PhaseSnapshot)
	sampler, err := m.cfg.Snapshot(ctx, spec)
	if err == nil && sampler.Qubits() != spec.Qubits {
		// The job's tally indexes outcomes of spec.Qubits bits.
		err = fmt.Errorf("job: sampler is %d qubits wide, the spec %d", sampler.Qubits(), spec.Qubits)
	}
	if err != nil {
		sp.End(map[string]any{"chunk": chunk, "err": err.Error()})
		m.finishChunkErr(j, chunk, err)
		return
	}
	sp.End(nil)

	shots := spec.ChunkShotCount(chunk)
	sp = obs.StartSpan(nil, j.trace, obs.PhaseSample)
	counts, err := core.TallyChunk(ctx, sampler, spec.Seed, chunk, shots)
	if err != nil {
		sp.End(map[string]any{"chunk": chunk, "err": err.Error()})
		m.finishChunkErr(j, chunk, err)
		return
	}
	sp.End(map[string]any{"chunk": chunk, "shots": shots})
	m.commitChunk(j, chunk, shots, counts)
}

// commitChunk makes one chunk durable and visible, in that order.
//
// The chunk record is encoded from the chunk's own tallies before the lock
// is taken, and only when the manager has a WAL to write it to: an in-memory
// manager would drop it unwritten. The wal phase is two spans: the encoding,
// and the append plus merge under the lock.
func (m *Manager) commitChunk(j *jobState, chunk, shots int, counts *core.Tally) {
	sp := obs.StartSpan(nil, j.trace, obs.PhaseWAL)
	var rec Record
	if m.cfg.Dir != "" {
		rec = mustRecord(recChunk, chunkRecord{
			ID:     j.spec.ID,
			Chunk:  chunk,
			Shots:  shots,
			Counts: encodeCounts(counts),
		})
	}
	sp.End(nil)

	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state.Terminal() || j.done[chunk] {
		return
	}
	if j.cancelReq {
		m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
		return
	}
	sp = obs.StartSpan(nil, j.trace, obs.PhaseWAL)
	// appendLocked is a no-op without a WAL, the one case rec was not built.
	if err := m.appendLocked(rec); err != nil {
		sp.End(map[string]any{"chunk": chunk, "err": err.Error()})
		// The tallies are deterministic — dropping them and re-sampling the
		// chunk after a backoff is safe and keeps the WAL the source of
		// truth.
		m.releaseChunkLocked(j, retryBackoff)
		return
	}
	j.done[chunk] = true
	j.chunksDone++
	j.executed++
	j.shotsDone += shots
	j.counts.Add(counts)
	sp.End(nil)
	j.updatedMS = time.Now().UnixMilli()
	m.mChunks.Inc()
	if j.chunksDone >= j.spec.ChunksTotal() {
		m.terminalizeLocked(j, StateCompleted, "", "")
	} else {
		m.publishLocked(j)
	}
	if m.w != nil && m.w.needsRotate() {
		m.rotateLocked()
	}
}

// releaseChunkLocked returns an uncommitted chunk to the scheduler after a
// backoff (zero = immediately runnable, e.g. on shutdown park).
func (m *Manager) releaseChunkLocked(j *jobState, backoff time.Duration) {
	if backoff > 0 {
		j.notBefore = time.Now().Add(backoff)
		time.AfterFunc(backoff, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
	}
}

// finishChunkErr classifies a chunk failure:
//
//   - cancellation requested → terminal cancelled;
//   - shutdown/park (draining daemon, cancelled base context) → chunk
//     released, job resumes on the next start;
//   - transient (ErrRetry: queue full, abandoned snapshot flight) → released
//     with a short backoff;
//   - resource verdicts (MO via dd node budget or statevec memory, TO via
//     deadline) → terminal failed with the matching code — a verdict is an
//     answer, not a retryable fault;
//   - anything else → terminal failed ("internal").
func (m *Manager) finishChunkErr(j *jobState, chunk int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	var verdict *VerdictError
	switch {
	case j.cancelReq:
		m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
	case errors.As(err, &verdict):
		m.terminalizeLocked(j, StateFailed, verdict.Code, err.Error())
	case errors.Is(err, ErrShutdown), errors.Is(err, context.Canceled):
		m.releaseChunkLocked(j, 0)
	case errors.Is(err, ErrRetry):
		m.releaseChunkLocked(j, retryBackoff)
	case errors.Is(err, dd.ErrNodeBudget), errors.Is(err, statevec.ErrMemoryOut):
		m.terminalizeLocked(j, StateFailed, "memory_out", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		m.terminalizeLocked(j, StateFailed, "timeout", err.Error())
	default:
		m.terminalizeLocked(j, StateFailed, "internal", err.Error())
	}
}
