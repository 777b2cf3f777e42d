package obs

// Phase labels follow the paper's weak-simulation pipeline (Fig. 2):
// strong simulation builds and applies operator DDs, the freeze stage
// converts the final live diagram into an immutable flat-array snapshot with
// the downstream/upstream masses and branch probabilities precomputed
// inline (paper Section IV-B), and each shot is a root-to-terminal walk over
// the frozen arrays. The govern phase covers the degradation ladder of
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

	// PhaseVerify covers DD invariant self-checks: dd.CheckInvariants at
	// freeze time and dd.Snapshot.Verify on every snapshot load.
	PhaseVerify = "verify"
)
