package job

// Manager is the job store + chunked executor. One mutex guards everything:
// the job table, the scheduler, and the WAL (writes, syncs and compaction),
// so "WAL sync then in-memory update" is a single atomic step and there is
// no lock-ordering question between store and log. Chunk sampling — the
// long part — runs outside the lock; only the frame writes and commits are
// serialized.
//
// Chunks are group-committed. A worker that picks a job draws its chunks
// one after another; each chunk's frame is written (no fsync) as soon as
// it is drawn, and the chunk is then pending: neither done nor visible. The
// batch closes when the job has no next chunk, on cancel, shutdown or an
// error, when another job is runnable, or once its drawing has taken
// batchBudget; one fsync then makes every pending chunk durable, and only
// then do they become visible, in order, one progress frame each. Under
// contention every chunk commits alone, as the scheduler's fair share
// assumes.
//
// Durability contract: a chunk becomes visible (counts merged, progress
// shown) only after its WAL record is on disk. Kill the process at any
// instant and restart: every committed chunk replays, and so does every
// pending chunk whose frame was written (a SIGKILL leaves the page cache),
// so only the one chunk per job being drawn re-samples, under its original
// rng.Stream(seed, i), and the final merged counts are bit-identical to an
// uninterrupted run.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
	// (queue full, snapshot flight abandoned, a failed WAL write or sync).
	retryBackoff = 250 * time.Millisecond
	// batchBudget bounds a batch's drawing time: past it the batch closes
	// at its next chunk. About ten fsyncs' worth, so a batch pays at most a
	// tenth for its sync, and its chunks become visible at most this and
	// one fsync late.
	batchBudget = time.Millisecond
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
	// SegmentBytes is the least size at which the WAL log compacts
	// (default DefaultSegmentBytes); past it, compaction waits for twice
	// what the last compaction wrote.
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

	counts     *core.Tally    // merged tallies of completed chunks
	done       []bool         // per-chunk completion
	pending    []pendingChunk // chunks written to the WAL, awaiting their batch's sync
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

// pendingChunk is a drawn chunk whose frame is written but not yet synced.
type pendingChunk struct {
	chunk  int
	counts *core.Tally
	rec    Record // its chunk record, for a compaction that lands before the sync
}

// nextChunk returns the first chunk neither done nor pending, or -1.
func (j *jobState) nextChunk() int {
	for i, d := range j.done {
		if !d && !slices.ContainsFunc(j.pending, func(p pendingChunk) bool { return p.chunk == i }) {
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
	ids   []string // insertion order, for List and compaction snapshots
	sched *sched
	w     *wal     // nil when Config.Dir is empty
	term  []string // terminal job IDs, oldest first (retention ring)

	stopping bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	mSubmitted, mCompleted, mFailed, mCancelled *obs.Counter
	mChunks, mQuota, mWALRecords, mWALErrors    *obs.Counter
	mWALSyncs                                   *obs.Counter
	gActive, gInflight, gWALBytes               *obs.Gauge

	// now reads the clock a batch's drawing time is measured by.
	now func() time.Time
}

// NewManager builds a Manager; call Start before use.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		jobs:  make(map[string]*jobState),
		sched: newSched(cfg.TenantWeights, DefaultMaxInFlightPerTenant, DefaultAgingInterval),
		now:   time.Now,
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
	m.mWALSyncs = reg.Counter("job_wal_syncs_total")
	m.gActive = reg.Gauge("job_active")
	m.gInflight = reg.Gauge("job_inflight_chunks")
	m.gWALBytes = reg.Gauge("job_wal_bytes")
	obs.RegisterHelp("job_submitted_total", "Jobs accepted (WAL-persisted and enqueued).")
	obs.RegisterHelp("job_completed_total", "Jobs that finished every chunk.")
	obs.RegisterHelp("job_failed_total", "Jobs terminated by a deterministic verdict (MO/TO/internal).")
	obs.RegisterHelp("job_cancelled_total", "Jobs terminated by client request.")
	obs.RegisterHelp("job_chunks_done_total", "Chunk checkpoints committed (WAL fsync + merge).")
	obs.RegisterHelp("job_quota_rejected_total", "Submits rejected by the per-tenant quota (HTTP 429).")
	obs.RegisterHelp("job_wal_records_total", "Records appended to the job WAL.")
	obs.RegisterHelp("job_wal_syncs_total", "Job WAL fsyncs: one per submit, terminal record, or batch of chunk records.")
	obs.RegisterHelp("job_wal_errors_total", "Job WAL write, sync and compaction failures.")
	obs.RegisterHelp("job_active", "Non-terminal jobs in the store.")
	obs.RegisterHelp("job_inflight_chunks", "Chunks currently executing.")
	obs.RegisterHelp("job_wal_bytes", "Job WAL log size in bytes.")
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
		// A damaged log, or an imported store, stays authoritative until
		// the replayed state is durably in its place: nothing is appended
		// before this compaction, and a store that cannot make it does not
		// start.
		if salvaged {
			if err := m.compactLocked(); err != nil {
				m.w = nil
				m.mu.Unlock()
				return err
			}
		}
		m.finishReplayLocked()
		m.gWALBytes.Set(m.w.size)
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
// checkpoint supersedes (never merges with) earlier chunk records. A later
// terminal record supersedes an earlier one: a completed record rides in
// its job's last batch, and when that batch fails to sync it stays in the
// log though no client saw it, ahead of the transition the job then made.
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
	case recChunkJSON:
		var cr chunkRecord
		if json.Unmarshal(rec.Payload, &cr) != nil {
			return
		}
		if j := m.chunkTargetLocked(cr.ID, cr.Chunk, cr.Shots); j != nil {
			if counts, err := decodeCounts(cr.Counts, j.spec.Qubits, cr.Shots); err == nil {
				replayChunk(j, cr.Chunk, cr.Shots, counts)
			}
		}
	case recChunkRun:
		h, err := readRunHead(rec.Type, rec.Payload)
		if err != nil {
			return
		}
		if j := m.chunkTargetLocked(h.id, h.chunk, h.shots); j != nil {
			if counts, err := decodeRun(h.pairs, j.spec.Qubits, h.shots); err == nil {
				replayChunk(j, h.chunk, h.shots, counts)
			}
		}
	case recState:
		var sr stateRecord
		if json.Unmarshal(rec.Payload, &sr) != nil {
			return
		}
		j, ok := m.jobs[sr.ID]
		if !ok || !sr.State.Terminal() {
			return
		}
		j.state = sr.State
		j.errCode, j.errMsg = sr.ErrCode, sr.Err
	case recCheckpointJSON:
		var cp checkpointRecord
		if json.Unmarshal(rec.Payload, &cp) != nil {
			return
		}
		j, ok := m.jobs[cp.ID]
		if !ok {
			return
		}
		// The JSON form skips a done chunk out of range or repeated.
		done, chunksDone, shotsDone := doneSet(j.spec, cp.Done)
		if counts, err := decodeCounts(cp.Counts, j.spec.Qubits, shotsDone); err == nil {
			replayCheckpoint(j, done, chunksDone, shotsDone, counts)
		}
	case recCheckpointRun:
		h, err := readRunHead(rec.Type, rec.Payload)
		if err != nil {
			return
		}
		j, ok := m.jobs[h.id]
		if !ok {
			return
		}
		// The run form ascends strictly, so a done chunk the set lacks is
		// out of range; and its shots must be those of its chunks.
		done, chunksDone, shotsDone := doneSet(j.spec, h.done)
		if chunksDone != len(h.done) || shotsDone != h.shots {
			return
		}
		if counts, err := decodeRun(h.pairs, j.spec.Qubits, shotsDone); err == nil {
			replayCheckpoint(j, done, chunksDone, shotsDone, counts)
		}
	}
}

// chunkTargetLocked returns the job a replayed chunk record of shots
// samples names, or nil when there is no such job, the chunk is out of
// range or already done, or the shots are not its quota.
func (m *Manager) chunkTargetLocked(id string, chunk, shots int) *jobState {
	j, ok := m.jobs[id]
	if !ok || chunk < 0 || chunk >= len(j.done) || j.done[chunk] || shots != j.spec.ChunkShotCount(chunk) {
		return nil
	}
	return j
}

// newCounts returns an empty accumulator for spec's chunks in their
// representation, by core.NewTally's rule at chunk 0's quota, the largest:
// dense when the chunks are, else runs that every chunk is added into by
// core.Accumulate, which keeps them one ascending run until they would
// cost more than a dense array.
func newCounts(spec *Spec) *core.Tally {
	return core.NewTally(spec.Qubits, spec.ChunkShotCount(0))
}

// replayChunk merges a replayed chunk's counts into j.
func replayChunk(j *jobState, chunk, shots int, counts *core.Tally) {
	j.done[chunk] = true
	j.chunksDone++
	j.shotsDone += shots
	j.counts = core.Accumulate(j.counts, counts, j.spec.Qubits)
}

// doneSet marks chunks done among spec's chunks, skipping any out of range
// or repeated, and sums the chunks and shots it marked.
func doneSet(spec Spec, chunks []int) (done []bool, chunksDone, shotsDone int) {
	done = make([]bool, spec.ChunksTotal())
	for _, c := range chunks {
		if c < 0 || c >= len(done) || done[c] {
			continue
		}
		done[c] = true
		chunksDone++
		shotsDone += spec.ChunkShotCount(c)
	}
	return done, chunksDone, shotsDone
}

// replayCheckpoint replaces j's progress with a replayed checkpoint's. The
// checkpoint is the full merged state at compaction time, not a delta: it
// supersedes, never merges.
func replayCheckpoint(j *jobState, done []bool, chunksDone, shotsDone int, counts *core.Tally) {
	j.counts = core.Accumulate(newCounts(&j.spec), counts, j.spec.Qubits)
	j.done, j.chunksDone, j.shotsDone = done, chunksDone, shotsDone
}

// finishReplayLocked settles the replayed table: terminal jobs enter the
// retention ring, complete-but-unmarked jobs are finalized, and everything
// else is enqueued to resume. A completed job whose chunks did not all
// replay (a record type this build does not read, a salvaged log) has no
// result to answer with, so it fails with result_lost.
func (m *Manager) finishReplayLocked() {
	now := time.Now()
	for _, id := range m.ids {
		j := m.jobs[id]
		j.recovered = j.chunksDone
		j.enqueued = now
		if j.state == StateCompleted && j.chunksDone < j.spec.ChunksTotal() {
			j.state, j.errCode = StateFailed, "result_lost"
			j.errMsg = fmt.Sprintf("job: completed, but %d of %d chunks replayed", j.chunksDone, j.spec.ChunksTotal())
		}
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
	j.counts = newCounts(&j.spec)
	j.done = make([]bool, j.spec.ChunksTotal())
	j.chunksDone, j.shotsDone, j.recovered = 0, 0, 0
	_ = m.appendLocked(checkpointRun(j.spec.ID, nil, 0, j.counts))
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
// completed job's counts never change again (no worker holds a terminal
// job), so callers read and format it without the manager's lock, and must
// not modify it.
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
		counts:    newCounts(&spec),
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

// appendLocked writes one WAL record and makes it durable (no-op when
// running in memory).
func (m *Manager) appendLocked(rec Record) error {
	if err := m.writeLocked(rec); err != nil {
		return err
	}
	return m.syncLocked()
}

// writeLocked writes one WAL record without an fsync (no-op in memory).
func (m *Manager) writeLocked(rec Record) error {
	if m.w == nil {
		return nil
	}
	if err := m.w.write(rec); err != nil {
		m.mWALErrors.Inc()
		return err
	}
	m.mWALRecords.Inc()
	m.gWALBytes.Set(m.w.size)
	return nil
}

// syncLocked makes every record written so far durable (no-op in memory).
func (m *Manager) syncLocked() error {
	if m.w == nil {
		return nil
	}
	if err := m.w.sync(); err != nil {
		m.mWALErrors.Inc()
		return err
	}
	m.mWALSyncs.Inc()
	return nil
}

// compactLocked replaces the WAL log with the live state: per job a submit
// record, a checkpoint when chunks are done, the records of its pending
// chunks (their frames are in the log being replaced, and their batch's
// sync will not reach them), and the terminal record if settled.
func (m *Manager) compactLocked() error {
	var snap []Record
	for _, id := range m.ids {
		j := m.jobs[id]
		snap = append(snap, mustRecord(recSubmit, j.spec))
		if j.chunksDone > 0 {
			done := make([]int, 0, j.chunksDone)
			for i, d := range j.done {
				if d {
					done = append(done, i)
				}
			}
			snap = append(snap, checkpointRun(id, done, j.shotsDone, j.counts))
		}
		for _, p := range j.pending {
			snap = append(snap, p.rec)
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
	if err := m.w.compact(snap); err != nil {
		m.mWALErrors.Inc()
		return err
	}
	m.gWALBytes.Set(m.w.size)
	return nil
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
// settleLocked.
func (m *Manager) terminalizeLocked(j *jobState, st State, code, msg string) {
	if j.state.Terminal() {
		return
	}
	// Best-effort persistence: a failed append leaves the job resumable
	// after restart (it will re-reach this verdict), which is strictly
	// safer than losing the WAL invariant.
	_ = m.appendLocked(mustRecord(recState, stateRecord{ID: j.spec.ID, State: st, ErrCode: code, Err: msg}))
	m.settleLocked(j, st, code, msg)
}

// settleLocked makes a terminal transition whose record is durable visible:
// the state, scheduler dequeue, retention, trace flush, and the final event
// frame.
func (m *Manager) settleLocked(j *jobState, st State, code, msg string) {
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

		m.runBatch(ctx, j, chunk)
		cancelChunk()

		m.mu.Lock()
		j.inflight = false
		j.cancelChunk = nil
		// Cancel may land in the window after the batch closed and released
		// the lock but before this reset: it sees inflight=true and defers
		// the transition to us, yet the chunk it cancelled is already done.
		// The scheduler never picks a cancel-requested job, so settle it
		// here or it stays "running" forever.
		if j.cancelReq && !j.state.Terminal() {
			m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
		}
		t.inflight--
		m.gInflight.Add(-1)
		// A finished batch may unblock this job for another worker, and the
		// tenant's in-flight slot is free again.
		m.cond.Broadcast()
	}
}

// runBatch draws j's chunks from chunk on, one at a time, and
// group-commits them: commitChunk writes each chunk's frame as it is drawn
// and closes the batch by the rule in the header comment.
func (m *Manager) runBatch(ctx context.Context, j *jobState, chunk int) {
	start := m.now()
	for chunk >= 0 {
		counts, err := m.drawChunk(ctx, j, chunk)
		if err != nil {
			m.mu.Lock()
			m.closeBatchLocked(j)
			m.finishChunkErrLocked(j, err)
			m.mu.Unlock()
			return
		}
		chunk = m.commitChunk(j, chunk, counts, start)
	}
}

// drawChunk executes one chunk outside the lock: resolve the frozen
// snapshot, then walk ChunkShotCount(chunk) shots under
// rng.Stream(seed, chunk). Each phase is one span in the job's trace.
func (m *Manager) drawChunk(ctx context.Context, j *jobState, chunk int) (*core.Tally, error) {
	spec := j.spec
	if err := fault.Hit(fault.JobChunkSample); err != nil {
		j.trace.Event(obs.PhaseSample, "chunk-fault", map[string]any{"chunk": chunk, "err": err.Error()})
		return nil, err
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
		return nil, err
	}
	sp.End(nil)

	shots := spec.ChunkShotCount(chunk)
	sp = obs.StartSpan(nil, j.trace, obs.PhaseSample)
	counts, err := core.TallyChunk(ctx, sampler, spec.Seed, chunk, shots)
	if err != nil {
		sp.End(map[string]any{"chunk": chunk, "err": err.Error()})
		return nil, err
	}
	sp.End(map[string]any{"chunk": chunk, "shots": shots})
	return counts, nil
}

// commitChunk writes a drawn chunk's frame and marks it pending, then
// returns the chunk to draw next, or -1 once it has closed the batch.
//
// The chunk record is encoded from the chunk's own tallies before the lock
// is taken, and only when the manager has a WAL to write it to: an in-memory
// manager would drop it unwritten. Without a WAL there is no fsync to
// share, so every chunk commits alone.
func (m *Manager) commitChunk(j *jobState, chunk int, counts *core.Tally, start time.Time) (next int) {
	sp := obs.StartSpan(nil, j.trace, obs.PhaseWAL)
	var rec Record
	if m.cfg.Dir != "" {
		rec = chunkRun(j.spec.ID, chunk, j.spec.ChunkShotCount(chunk), counts)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if j.cancelReq {
		sp.End(nil)
		m.closeBatchLocked(j)
		m.terminalizeLocked(j, StateCancelled, "cancelled", "cancelled by request")
		return -1
	}
	// writeLocked is a no-op without a WAL, the one case rec was not built.
	if err := m.writeLocked(rec); err != nil {
		sp.End(map[string]any{"chunk": chunk, "err": err.Error()})
		// The tallies are deterministic — dropping them and re-sampling the
		// chunk after a backoff is safe and keeps the WAL the source of
		// truth.
		m.closeBatchLocked(j)
		m.releaseChunkLocked(j, retryBackoff)
		return -1
	}
	sp.End(nil)
	j.pending = append(j.pending, pendingChunk{chunk: chunk, counts: counts, rec: rec})
	next = j.nextChunk()
	if next >= 0 && m.w != nil && !m.stopping && m.now().Sub(start) < batchBudget && !m.sched.anyRunnable(time.Now()) {
		return next
	}
	m.closeBatchLocked(j)
	return -1
}

// closeBatchLocked makes j's pending chunks durable and visible, in that
// order. When they complete the job its completed record is written first,
// so one fsync covers the batch and the transition. Then each chunk is
// merged in chunk order with its own progress frame, as if it had
// committed alone, and a completed job settles without a second append.
//
// A failed write or sync makes nothing visible: the chunks are drawn again
// after retryBackoff, and replay skips the frames the log may then hold
// twice (chunkTargetLocked).
func (m *Manager) closeBatchLocked(j *jobState) {
	if len(j.pending) == 0 {
		return
	}
	sp := obs.StartSpan(nil, j.trace, obs.PhaseWAL)
	complete := j.chunksDone+len(j.pending) == j.spec.ChunksTotal()
	var err error
	if complete {
		err = m.writeLocked(mustRecord(recState, stateRecord{ID: j.spec.ID, State: StateCompleted}))
	}
	if err == nil {
		err = m.syncLocked()
	}
	if err != nil {
		sp.End(map[string]any{"chunks": len(j.pending), "err": err.Error()})
		clear(j.pending)
		j.pending = j.pending[:0]
		m.releaseChunkLocked(j, retryBackoff)
		return
	}
	for i, p := range j.pending {
		if i > 0 { // the first chunk's commit span also timed the sync
			sp = obs.StartSpan(nil, j.trace, obs.PhaseWAL)
		}
		j.done[p.chunk] = true
		j.chunksDone++
		j.executed++
		j.shotsDone += j.spec.ChunkShotCount(p.chunk)
		j.counts = core.Accumulate(j.counts, p.counts, j.spec.Qubits)
		sp.End(nil)
		j.updatedMS = time.Now().UnixMilli()
		m.mChunks.Inc()
		if j.chunksDone < j.spec.ChunksTotal() {
			m.publishLocked(j)
		}
	}
	clear(j.pending)
	j.pending = j.pending[:0]
	if complete {
		m.settleLocked(j, StateCompleted, "", "")
	}
	if m.w != nil && m.w.needsCompact() {
		// A failed compaction is counted and leaves the old log in use.
		_ = m.compactLocked()
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

// finishChunkErrLocked classifies a chunk failure:
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
func (m *Manager) finishChunkErrLocked(j *jobState, err error) {
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
