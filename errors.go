package reachac

import (
	"errors"

	"reachac/internal/wal"
)

// Sentinel errors returned (wrapped) by the facade, so callers — the HTTP
// serving layer in particular — can classify failures with errors.Is instead
// of string-matching messages. Every wrapping error keeps its descriptive
// message; the sentinel only adds the machine-checkable identity.
var (
	// ErrUnknownUser marks an operation naming a member that does not exist
	// (an unresolvable name or an out-of-range ID).
	ErrUnknownUser = errors.New("unknown user")
	// ErrDuplicateUser marks an AddUser whose name is already taken.
	ErrDuplicateUser = errors.New("user already exists")
	// ErrUnknownRelationship marks an Unrelate of a relationship (or
	// relationship type) that does not exist.
	ErrUnknownRelationship = errors.New("unknown relationship")
	// ErrDuplicateRelationship marks a Relate of an already-present
	// (from, to, type) triple.
	ErrDuplicateRelationship = errors.New("relationship already exists")
	// ErrSelfRelationship marks a Relate of a member to themself, which the
	// model rejects.
	ErrSelfRelationship = errors.New("self relationship rejected")
	// ErrResourceOwned marks a Share of a resource already registered to a
	// different owner.
	ErrResourceOwned = errors.New("resource is owned by another user")
	// ErrUnknownResource marks a policy or audience operation on a resource
	// no Share ever registered. Access checks deliberately do NOT return it:
	// an unknown resource checks as deny-by-default, per the model.
	ErrUnknownResource = errors.New("unknown resource")
	// ErrReadOnly marks a mutation on a network poisoned read-only by a
	// write-ahead log failure.
	ErrReadOnly = errors.New("network is read-only after WAL failure")
	// ErrTooLarge marks a batch whose write-ahead log record group would
	// exceed the log's size limit (wal.MaxRecordSize). Nothing of it was
	// logged, its invertible mutations were rolled back, and the network
	// stays writable: split the batch.
	ErrTooLarge = wal.ErrRecordTooLarge
	// ErrClosed marks a mutation on a network after Close.
	ErrClosed = errors.New("network is closed")
	// ErrNotDurable marks a durability-only operation (Checkpoint) on a
	// network not created by Open or Create.
	ErrNotDurable = errors.New("network is not durable")
)
