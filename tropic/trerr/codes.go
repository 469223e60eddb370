package trerr

import "net/http"

// The taxonomy. Each code is registered with its one canonical HTTP
// status; renaming a code is an API break caught by TestCodeSurface and
// the CI `go doc` snapshot.
//
// Areas: "api" (gateway request handling), "submit" (submission
// plumbing), "txn" (transaction lifecycle), "reconcile" (§4
// reload/repair), "shard" (cross-shard routing), "xshard" (cross-shard
// two-phase commit), "store" (coordination-store operations).
var (
	// APIBadRequest: the request was malformed (bad JSON, missing or
	// invalid parameter).
	APIBadRequest = register("api.bad_request", http.StatusBadRequest,
		"malformed request: bad JSON, missing or invalid parameter")
	// APIMethodNotAllowed: the endpoint exists but not for this HTTP
	// method.
	APIMethodNotAllowed = register("api.method_not_allowed", http.StatusMethodNotAllowed,
		"endpoint does not support this HTTP method")
	// APINotFound: no such endpoint.
	APINotFound = register("api.not_found", http.StatusNotFound,
		"no such endpoint")
	// APIUnavailable: the platform cannot serve (no leading controller
	// or no store quorum); retry after failover.
	APIUnavailable = register("api.unavailable", http.StatusServiceUnavailable,
		"platform not ready: no leading controller or no store quorum")
	// APIInternal: an unclassified server-side failure.
	APIInternal = register("api.internal", http.StatusInternalServerError,
		"unclassified server-side failure")
	// APITimeout: a gateway-side deadline elapsed before the operation
	// completed (e.g. a reconcile exceeding its time budget). Waits on
	// transaction outcomes use txn.wait_timeout instead.
	APITimeout = register("api.timeout", http.StatusGatewayTimeout,
		"gateway-side deadline elapsed before the operation completed")
	// APIOverloaded: admission control shed the submission because the
	// target shard's pipeline backlog is at its configured watermark
	// (Config.MaxInflightPerShard). The response carries a Retry-After
	// hint; back off and resubmit — nothing was created.
	APIOverloaded = register("api.overloaded", http.StatusTooManyRequests,
		"submission shed: shard pipeline backlog at its admission-control watermark; retry after backoff")

	// SubmitInvalidArgs: the submission itself is invalid (empty
	// procedure name, malformed idempotency key, empty batch).
	SubmitInvalidArgs = register("submit.invalid_args", http.StatusBadRequest,
		"invalid submission: empty procedure, malformed idempotency key, or empty batch")
	// SubmitIdempotencyReuse: the idempotency key was already used for a
	// different procedure.
	SubmitIdempotencyReuse = register("submit.idempotency_reuse", http.StatusConflict,
		"idempotency key already used for a different procedure")
	// SubmitIdempotencyPending: another submission holding this
	// idempotency key has not finished registering its transaction.
	SubmitIdempotencyPending = register("submit.idempotency_pending", http.StatusConflict,
		"concurrent submission with this idempotency key is still registering")

	// TxnNotFound: no transaction record with this id.
	TxnNotFound = register("txn.not_found", http.StatusNotFound,
		"no transaction record with this id")
	// TxnUnknownProcedure: the named stored procedure is not registered.
	TxnUnknownProcedure = register("txn.unknown_procedure", http.StatusBadRequest,
		"stored procedure is not in the registry")
	// TxnConstraintViolation: logical simulation hit a service or
	// engineering constraint (Figure 2, ③A).
	TxnConstraintViolation = register("txn.constraint_violation", http.StatusConflict,
		"constraint violation during logical simulation")
	// TxnProcedureAbort: the stored procedure aborted itself with a
	// domain reason (tropic.ErrAbort).
	TxnProcedureAbort = register("txn.procedure_abort", http.StatusConflict,
		"stored procedure aborted the transaction")
	// TxnPhysicalFailure: a device action failed and the physical layer
	// rolled back (⑤B).
	TxnPhysicalFailure = register("txn.physical_failure", http.StatusConflict,
		"device action failed; physical rollback succeeded")
	// TxnRollbackFailed: a device action failed AND an undo failed,
	// leaving a cross-layer inconsistency for reconciliation (§4).
	TxnRollbackFailed = register("txn.rollback_failed", http.StatusConflict,
		"device action and its undo both failed; node marked inconsistent")
	// TxnTerminated: the transaction was stopped by an operator
	// TERM/KILL signal (§4).
	TxnTerminated = register("txn.terminated", http.StatusConflict,
		"transaction stopped by operator TERM/KILL signal")
	// TxnInvalidSignal: the signal is not TERM or KILL.
	TxnInvalidSignal = register("txn.invalid_signal", http.StatusBadRequest,
		"signal must be TERM or KILL")
	// TxnIllegalTransition: an attempted state change violates the
	// Figure 2 state machine.
	TxnIllegalTransition = register("txn.illegal_transition", http.StatusConflict,
		"state change violates the transaction state machine")
	// TxnWaitTimeout: the wait deadline elapsed before the transaction
	// reached a terminal state.
	TxnWaitTimeout = register("txn.wait_timeout", http.StatusGatewayTimeout,
		"wait deadline elapsed before the transaction became terminal")

	// ReconcileConflict: a reload/repair request was refused or failed
	// (locked subtree, repair rule failure).
	ReconcileConflict = register("reconcile.conflict", http.StatusConflict,
		"reload/repair refused or failed")
	// ReconcileUnsupported: the deployment has no reconciler configured.
	ReconcileUnsupported = register("reconcile.unsupported", http.StatusNotImplemented,
		"deployment has no reconciler configured")

	// ShardCrossShard: the submission's resource roots map to more than
	// one shard of a sharded platform AND cross-shard transactions are
	// disabled (Config.CrossShard, the ablation path). With cross-shard
	// execution enabled — the default — spanning submissions run as
	// atomic two-phase-commit transactions instead of being rejected.
	ShardCrossShard = register("shard.cross_shard", http.StatusUnprocessableEntity,
		"transaction addresses resources owned by different shards and cross-shard execution is disabled")

	// XShardPrepareFailed: a participant shard voted to abort a
	// cross-shard transaction during its prepare phase (constraint
	// violation, procedure abort, or lock acquisition failure on that
	// shard); the coordinator recorded an ABORT decision and every
	// prepared child rolled back.
	XShardPrepareFailed = register("xshard.prepare_failed", http.StatusConflict,
		"a participant shard voted to abort during the cross-shard prepare phase")
	// XShardInDoubtTimeout: the coordinator's prepare deadline elapsed
	// before every participant voted (participant crash, lost vote, or
	// cross-shard lock wait); the coordinator resolved the in-doubt
	// transaction by recording an ABORT decision.
	XShardInDoubtTimeout = register("xshard.indoubt_timeout", http.StatusGatewayTimeout,
		"cross-shard prepare deadline elapsed before every participant voted; transaction aborted")
	// XShardWounded: wound-wait resolved a cross-shard lock-order
	// inversion by aborting this (younger) transaction so an older one
	// could take its locks immediately. No longer produced: a wound now
	// retracts the younger transaction's vote and prepares it again, so
	// it waits instead of aborting. Kept so clients that match on it
	// still build.
	XShardWounded = register("xshard.wounded", http.StatusConflict,
		"aborted by wound-wait: an older cross-shard transaction claimed conflicting locks")

	// StoreNoNode: the target znode does not exist.
	StoreNoNode = register("store.no_node", http.StatusNotFound,
		"target znode does not exist")
	// StoreNodeExists: Create hit an existing znode.
	StoreNodeExists = register("store.node_exists", http.StatusConflict,
		"znode already exists")
	// StoreBadVersion: a conditional write lost a compare-and-set race.
	StoreBadVersion = register("store.bad_version", http.StatusConflict,
		"conditional write lost a compare-and-set race")
	// StoreNotEmpty: Delete on a znode that still has children.
	StoreNotEmpty = register("store.not_empty", http.StatusConflict,
		"znode still has children")
	// StoreNoQuorum: fewer than a majority of store replicas are alive.
	StoreNoQuorum = register("store.no_quorum", http.StatusServiceUnavailable,
		"store ensemble lost quorum")
	// StoreSessionExpired: the client's store session expired.
	StoreSessionExpired = register("store.session_expired", http.StatusServiceUnavailable,
		"client's store session expired")
	// StoreEphemeralChildren: attempted to create a child under an
	// ephemeral znode.
	StoreEphemeralChildren = register("store.ephemeral_children", http.StatusBadRequest,
		"ephemeral znodes may not have children")
	// StoreBadPath: malformed znode path.
	StoreBadPath = register("store.bad_path", http.StatusBadRequest,
		"malformed znode path")
	// StoreClosed: the ensemble has been shut down.
	StoreClosed = register("store.closed", http.StatusServiceUnavailable,
		"store ensemble has been shut down")
)
