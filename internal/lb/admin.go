package lb

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gendt/internal/serve"
)

// Admin endpoints. Mutations require Options.AdminToken (bearer auth);
// reads are open like the rest of /debug.
const (
	EndpointAdminReplicas = "/admin/replicas"
	EndpointAdminRollout  = "/admin/rollout"
)

// Rollout phases and steps exported in /debug/vars. The LB does not run
// the rollout itself — gendt-rollout drives it and posts state here so
// operators (and CI assertions) have one place to look.
const (
	RolloutIdle       = "idle"
	RolloutRolling    = "rolling"
	RolloutDone       = "done"
	RolloutRolledBack = "rolled_back"
)

// RolloutState is the fleet's last-known rollout position: which model is
// being promoted, how far it got, and — after a halt — why it rolled back.
type RolloutState struct {
	Phase       string `json:"phase"` // idle | rolling | done | rolled_back
	Step        string `json:"step,omitempty"`
	Model       string `json:"model,omitempty"`  // candidate being promoted
	Target      string `json:"target,omitempty"` // replica currently in hand
	Promoted    int    `json:"promoted"`
	Total       int    `json:"total"`
	Reason      string `json:"reason,omitempty"` // last halt/rollback reason
	UpdatedUnix int64  `json:"updated_unix,omitempty"`
}

// RolloutState returns the current rollout position.
func (lb *LB) RolloutState() RolloutState {
	lb.rollMu.Lock()
	defer lb.rollMu.Unlock()
	return lb.rollout
}

// SetRolloutState replaces the rollout position (stamped now).
func (lb *LB) SetRolloutState(s RolloutState) {
	lb.rollMu.Lock()
	s.UpdatedUnix = time.Now().Unix()
	lb.rollout = s
	lb.rollMu.Unlock()
}

// authorized checks the bearer token on a mutating admin request. An empty
// configured token disables the admin API entirely — a fleet should not be
// mutable by whoever can reach the port.
func (lb *LB) authorized(w http.ResponseWriter, r *http.Request) bool {
	if lb.opt.AdminToken == "" {
		serve.WriteError(w, http.StatusForbidden, "admin API disabled: start gendt-lb with -admin-token")
		return false
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) ||
		subtle.ConstantTimeCompare([]byte(strings.TrimPrefix(auth, prefix)), []byte(lb.opt.AdminToken)) != 1 {
		serve.WriteError(w, http.StatusUnauthorized, "invalid or missing bearer token")
		return false
	}
	return true
}

// AdminReplicaRequest is the POST /admin/replicas body.
type AdminReplicaRequest struct {
	// Action is one of add | remove | drain | readmit.
	Action string `json:"action"`
	// Replica is the backend base URL, e.g. http://127.0.0.1:8081.
	Replica string `json:"replica"`
}

// AdminReplicaResponse acknowledges a membership change.
type AdminReplicaResponse struct {
	Action  string   `json:"action"`
	Replica string   `json:"replica"`
	Members []string `json:"members"` // ring membership after the change
}

func (lb *LB) handleAdminReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		serve.WriteJSON(w, http.StatusOK, map[string]any{"members": lb.Ring().Members()})
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if !lb.authorized(w, r) {
		return
	}
	var req AdminReplicaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.Replica == "" {
		serve.WriteError(w, http.StatusBadRequest, "replica is required")
		return
	}
	var err error
	switch req.Action {
	case "add":
		err = lb.AddReplica(req.Replica)
	case "remove":
		ctx, cancel := context.WithTimeout(r.Context(), lb.opt.DrainTimeout)
		err = lb.RemoveReplica(ctx, req.Replica)
		cancel()
	case "drain":
		err = lb.DrainReplica(req.Replica)
	case "readmit":
		err = lb.ReadmitReplica(req.Replica)
	default:
		serve.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown action %q (want add|remove|drain|readmit)", req.Action))
		return
	}
	if err != nil {
		serve.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, AdminReplicaResponse{
		Action: req.Action, Replica: req.Replica, Members: lb.Ring().Members(),
	})
}

func (lb *LB) handleAdminRollout(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		serve.WriteJSON(w, http.StatusOK, lb.RolloutState())
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if !lb.authorized(w, r) {
		return
	}
	var s RolloutState
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&s); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	switch s.Phase {
	case RolloutIdle, RolloutRolling, RolloutDone, RolloutRolledBack:
	default:
		serve.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown phase %q (want idle|rolling|done|rolled_back)", s.Phase))
		return
	}
	lb.SetRolloutState(s)
	serve.WriteJSON(w, http.StatusOK, lb.RolloutState())
}

// AddReplica admits a new backend: it joins the replica map and the ring
// atomically (from a router's perspective: the new ring is one pointer
// swap), starts healthy, and gets a probe loop if probing is running. Only
// keys the newcomer's vnodes claim move to it.
func (lb *LB) AddReplica(name string) error {
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	lb.repMu.Lock()
	if _, dup := lb.replicas[name]; dup {
		lb.repMu.Unlock()
		return fmt.Errorf("replica %q already a member", name)
	}
	r := &replica{name: name}
	r.healthy.Store(true)
	lb.replicas[name] = r
	lb.repMu.Unlock()
	lb.ringp.Store(lb.Ring().With(name, lb.opt.VNodes))
	if lb.started.Load() {
		lb.startProbe(r)
	}
	return nil
}

// DrainReplica holds a member out of routing without removing it from the
// ring: new requests skip it, in-flight ones finish, and its keys fail
// over to ring successors for the duration. Reversible via readmit.
func (lb *LB) DrainReplica(name string) error {
	r := lb.replica(name)
	if r == nil {
		return fmt.Errorf("unknown replica %q", name)
	}
	r.hold.Store(true)
	return nil
}

// ReadmitReplica lifts an admin drain and clears any Retry-After backoff
// so the replica takes traffic immediately (the health state machine is
// untouched — an ejected replica still needs OKAfter probe successes).
func (lb *LB) ReadmitReplica(name string) error {
	r := lb.replica(name)
	if r == nil {
		return fmt.Errorf("unknown replica %q", name)
	}
	r.hold.Store(false)
	r.availableAt.Store(0)
	return nil
}

// WaitDrained blocks until the replica's in-flight gauge reads zero on two
// consecutive polls (the double read closes the gap where a router already
// past the ring swap is between acquire and forward) or ctx expires.
func (lb *LB) WaitDrained(ctx context.Context, name string) error {
	r := lb.replica(name)
	if r == nil {
		return fmt.Errorf("unknown replica %q", name)
	}
	zeros := 0
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if r.inFlight.Load() == 0 {
			zeros++
			if zeros >= 2 {
				return nil
			}
		} else {
			zeros = 0
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain of %q timed out with %d in flight: %w",
				name, r.inFlight.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// RemoveReplica takes a member out of service without dropping requests:
// the replica is held (new arrivals skip it), its keys move to ring
// successors via a ring rebuild, in-flight requests drain to zero, and
// only then does it leave the state map and lose its probe loop. If the
// drain outruns ctx the replica stays a drained member so the operator can
// retry or readmit — nothing is dropped either way.
func (lb *LB) RemoveReplica(ctx context.Context, name string) error {
	lb.memberMu.Lock()
	defer lb.memberMu.Unlock()
	r := lb.replica(name)
	if r == nil {
		return fmt.Errorf("unknown replica %q", name)
	}
	if lb.Ring().Len() <= 1 {
		return fmt.Errorf("cannot remove %q: it is the last replica", name)
	}
	r.hold.Store(true)
	lb.ringp.Store(lb.Ring().Without(name, lb.opt.VNodes))
	if err := lb.WaitDrained(ctx, name); err != nil {
		return err
	}
	lb.repMu.Lock()
	delete(lb.replicas, name)
	lb.repMu.Unlock()
	if r.stopProbe != nil {
		r.stopProbe()
	}
	return nil
}
