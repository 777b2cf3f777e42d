package obs

// Phase labels follow the paper's weak-simulation pipeline (Fig. 2):
// strong simulation builds and applies operator DDs, the freeze stage
// copies the final live diagram's nodes and edge weights into an immutable
// flat-array snapshot, and each shot is a root-to-terminal walk over a walk
// table the sampler derives from that snapshot (core.NewFrozenSampler; paper
// Section IV-B). The govern phase covers the degradation ladder of
// weaksim.SimulateAuto.
const (
	PhaseBuild  = "build"
	PhaseApply  = "apply"
	PhaseFreeze = "freeze"
	PhaseSample = "sample"
	PhaseGovern = "govern"

	// Serving phases (internal/serve): PhaseParse covers request decoding
	// and QASM parsing, PhaseHash the canonical circuit hash (the cache
	// key), PhaseQueue the time a simulation job waits in the bounded
	// admission queue before a worker picks it up, PhaseEncode writing a
	// response's counts, and PhaseServe whole-request handling on the
	// daemon.
	PhaseParse  = "parse"
	PhaseHash   = "hash"
	PhaseQueue  = "queue"
	PhaseEncode = "encode"
	PhaseServe  = "serve"

	// Batch-job phases (internal/job): PhaseSnapshot covers resolving a
	// chunk's frozen snapshot (a cache hit, or a whole strong simulation),
	// PhaseWAL encoding and appending the chunk's write-ahead-log record.
	// A chunk's walk is PhaseSample.
	PhaseSnapshot = "snapshot"
	PhaseWAL      = "wal"

	// PhaseVerify covers the DD self-checks at freeze: dd.Snapshot.Verify
	// over the new snapshot and dd.Manager.CheckStorage over the live
	// tables. An explicit CheckInvariants or CheckStorage call on an
	// observed manager opens one too; a snapshot loaded from disk or a peer
	// is verified without a span.
	PhaseVerify = "verify"
)
