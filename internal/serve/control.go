package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
)

// The control plane: every body a health, readiness, reload or error
// answer carries is declared here once, as the struct its handler marshals
// and its readers — the router's Refresh and prober, the trainer's rollout
// — unmarshal, and Call is the one client that speaks them. The router's
// own answers (its health and its flip) sit beside their handlers in
// internal/cluster. Keys a role or an option adds are embedded pointers,
// omitempty or omitzero, so a body carries exactly the keys its producer
// has, and a reader tells a role by their presence.

// Health is the body of GET /healthz on a full server and on a shard.
type Health struct {
	Status       string `json:"status"`
	ModelVersion uint64 `json:"model_version"`
	LoadedAt     string `json:"loaded_at"`
	Model        string `json:"model"`
	Mapped       bool   `json:"mapped"`
	Float32      bool   `json:"float32"`
	// ShardHealth is set on shards only: its shard_hi is how the router
	// tells a shard from a full server.
	*ShardHealth
	// PrevVersion is the previous version a shard's two-deep history still
	// answers; absent before its first reload, and on a full server.
	PrevVersion uint64 `json:"prev_version,omitempty"`
	// FeedPositives is the Config.Feed backlog, absent without a feed.
	FeedPositives *int64 `json:"feed_positives,omitempty"`
	// Models and Tenants are the registry's state, nil — and absent —
	// without one: per-model versions (what a registry-aware trainer reads
	// around a named rollout) and each tenant's experiment topology.
	Models  map[string]ModelHealth  `json:"models,omitzero"`
	Tenants map[string]TenantHealth `json:"tenants,omitzero"`
}

// ShardHealth is what a shard's /healthz adds: with the versions beside
// it, everything the router's Refresh builds its route table from.
type ShardHealth struct {
	Users int `json:"users"`
	Items int `json:"items"`
	ShardRange
}

// ShardRange is the item partition a shard owns.
type ShardRange struct {
	ShardLo int `json:"shard_lo"`
	ShardHi int `json:"shard_hi"`
}

// ModelHealth is one named registry model.
type ModelHealth struct {
	Model        string `json:"model"`
	ModelVersion uint64 `json:"model_version"`
	Mapped       bool   `json:"mapped"`
	LoadedAt     string `json:"loaded_at"`
}

// TenantHealth is one tenant: its experiment and arms, its shadow and its
// feed partition's backlog, each absent when the tenant has none.
type TenantHealth struct {
	Experiment    string      `json:"experiment,omitempty"`
	Arms          []ArmHealth `json:"arms,omitempty"`
	ShadowModel   string      `json:"shadow_model,omitempty"`
	ShadowSample  *float64    `json:"shadow_sample,omitempty"`
	FeedPositives *int64      `json:"feed_positives,omitempty"`
}

// ArmHealth is one experiment arm.
type ArmHealth struct {
	Arm          string `json:"arm"`
	Model        string `json:"model"`
	ModelVersion uint64 `json:"model_version"`
	Weight       uint64 `json:"weight"`
}

// Ready is the body of GET /readyz on every tier: 200 with what is being
// served — a server's model version (on a shard also its range, and the
// history the router's prober checks its pin against), the router's route
// epoch — or 503 with the reason.
type Ready struct {
	Ready        bool   `json:"ready"`
	Reason       string `json:"reason,omitempty"`
	ModelVersion uint64 `json:"model_version,omitempty"`
	PrevVersion  uint64 `json:"prev_version,omitempty"`
	*ShardRange
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReloadRequest optionally names a registry model to reload. An empty
// body (or empty model) reloads the default Config.ModelPath.
type ReloadRequest struct {
	Model string `json:"model,omitempty"`
}

// ReloadResponse reports the snapshot installed by a reload: the new
// model version plus the serving mode (mmapped? float32 scoring?), so a
// trainer pushing a rollout confirms the swap landed — and how it is
// being served — from the reload response alone, without a second
// /healthz round trip. Name echoes the registry model on a named reload.
type ReloadResponse struct {
	ModelVersion uint64 `json:"model_version"`
	Model        string `json:"model"`
	Mapped       bool   `json:"mapped"`
	Float32      bool   `json:"float32"`
	Name         string `json:"name,omitempty"`
}

// ErrorBody is every error answer of both tiers, data path included: the
// message, and a stable machine-readable code ("unknown_tenant",
// "bad_frame", "deadline_exceeded") where clients branch on one.
type ErrorBody struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// StatusError is an answer whose status the caller did not accept,
// carrying the server's ErrorBody text when the body had one.
type StatusError struct {
	Path   string
	Status int
	Text   string
}

// NewStatusError reads the error text out of a refused call's body.
func NewStatusError(path string, status int, body []byte) *StatusError {
	var e ErrorBody
	_ = json.Unmarshal(body, &e) // not an ErrorBody: the status alone speaks
	return &StatusError{Path: path, Status: status, Text: e.Error}
}

func (e *StatusError) Error() string {
	if e.Text == "" {
		return fmt.Sprintf("%s: HTTP %d", e.Path, e.Status)
	}
	return fmt.Sprintf("%s: %s (HTTP %d)", e.Path, e.Text, e.Status)
}

// Call is the one control-plane client call: method on base+path with an
// optional JSON body, at most 1 MiB of the answer read and decoded into
// out. A status other than 200 is a *StatusError unless the caller lists
// it in alsoOK, in which case its body is decoded just the same (a 503
// /readyz is a successful read of an unready server). Deadlines are the
// caller's: ctx bounds the whole call.
func Call(ctx context.Context, hc *http.Client, method, base, path string, body, out any, alsoOK ...int) error {
	var payload []byte // stays empty, and the request bodyless, without a body
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && !slices.Contains(alsoOK, resp.StatusCode) {
		return NewStatusError(path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
