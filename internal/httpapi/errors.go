package httpapi

import (
	"context"
	"errors"
	"net/http"

	"reachac"
)

// Sentinels of the serving layer itself, beside the facade's own
// (reachac.Err*). Like those they travel wrapped, and cross the wire as
// their code.
var (
	// ErrBadRequest marks a request the service cannot act on as stated (an
	// attribute of an unsupported type, a malformed expand round).
	ErrBadRequest = errors.New("bad request")
	// ErrOverloaded marks work shed by admission control: a full mutation
	// queue, a saturated check limiter. Retry after the Retry-After hint.
	ErrOverloaded = errors.New("server overloaded")
	// ErrShardUnavailable marks a decision the shard router refused because
	// a shard it needed did not answer. Checks FAIL CLOSED on it: granting
	// access because the shard holding the denying evidence was down would
	// be an outage turning into a breach.
	ErrShardUnavailable = errors.New("shard unavailable")
)

// ErrorRow ties one sentinel error to its form on the wire.
type ErrorRow struct {
	Err    error
	Status int
	Code   string
}

// Errors is the sentinel ↔ (HTTP status, wire code) table — the only place
// the mapping is written down. The servers' error writer reads it left to
// right (Classify), the typed client right to left (Sentinel), so a code
// decodes to exactly the sentinel that produced it.
var Errors = []ErrorRow{
	{ErrShardUnavailable, http.StatusServiceUnavailable, CodeShardUnavailable},
	{ErrBadRequest, http.StatusBadRequest, CodeBadRequest},
	{reachac.ErrUnknownUser, http.StatusNotFound, CodeUnknownUser},
	{reachac.ErrUnknownResource, http.StatusNotFound, CodeUnknownResource},
	{reachac.ErrUnknownRelationship, http.StatusNotFound, CodeUnknownRelationship},
	{reachac.ErrDuplicateUser, http.StatusConflict, CodeDuplicateUser},
	{reachac.ErrDuplicateRelationship, http.StatusConflict, CodeDuplicateRelationship},
	{reachac.ErrSelfRelationship, http.StatusBadRequest, CodeSelfRelationship},
	{reachac.ErrResourceOwned, http.StatusConflict, CodeResourceOwned},
	{reachac.ErrReadOnly, http.StatusServiceUnavailable, CodeReadOnly},
	{reachac.ErrClosed, http.StatusServiceUnavailable, CodeClosed},
	{ErrOverloaded, http.StatusServiceUnavailable, CodeOverloaded},
}

// Classify returns the wire form of err: the first row whose sentinel err
// wraps. A deadline that ran out (or a caller that went away) inside the
// service is load it could not carry and reads as ErrOverloaded; anything
// else is 500 internal.
func Classify(err error) (status int, code string) {
	for _, row := range Errors {
		if errors.Is(err, row.Err) {
			return row.Status, row.Code
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable, CodeOverloaded
	}
	return http.StatusInternalServerError, CodeInternal
}

// Sentinel returns the error a wire code stands for, nil for a code without
// one ("internal", or a code from a newer server).
func Sentinel(code string) error {
	for _, row := range Errors {
		if row.Code == code {
			return row.Err
		}
	}
	return nil
}
