package hefd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hef/internal/httpapi"
	"hef/internal/store"
)

// MaxBodyBytes caps a request body. It comfortably fits the largest valid
// spec (MaxHIDBytes plus JSON overhead) while keeping a hostile client from
// streaming gigabytes into the decoder.
const MaxBodyBytes = 1 << 20

// apiError is the shared JSON error envelope every non-2xx response
// carries (see internal/httpapi):
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1500}}
type apiError = httpapi.Error

// NewHandler builds the daemon's HTTP API around a Manager. tel, when
// non-nil, serves the telemetry endpoints (/metrics, /healthz, /readyz,
// /status) on the same listener, so one hardened server exposes both the
// job API and its own observability.
func NewHandler(m *Manager, tel http.Handler) http.Handler {
	// authTenant resolves the caller's tenant from the Authorization
	// header. When the daemon has no keyring, auth is off and every caller
	// acts as tenant "" (= unrestricted, the PR-7 behavior). With a
	// keyring, a missing or unknown key is a 401 — the same answer for
	// both, so a probe cannot distinguish "no key" from "wrong key" — and
	// a scope=ro key asking to mutate is a 403.
	authTenant := func(w http.ResponseWriter, r *http.Request, mutate bool) (string, bool) {
		ring := m.Keys()
		if ring.Len() == 0 {
			return "", true
		}
		key, found := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !found || key == "" {
			m.noteAuthDenied()
			writeErr(w, &AuthError{Code: AuthMissing, Message: "missing or unrecognized API key"})
			return "", false
		}
		entry, ok := ring.LookupEntry(key)
		if !ok {
			m.noteAuthDenied()
			writeErr(w, &AuthError{Code: AuthMissing, Message: "missing or unrecognized API key"})
			return "", false
		}
		if mutate && entry.ReadOnly {
			m.noteAuthDenied()
			writeErr(w, &AuthError{Code: AuthForbidden, Message: "key is read-only (scope=ro)"})
			return "", false
		}
		return entry.Tenant, true
	}
	// authJob additionally checks that the caller's tenant owns job id; a
	// cross-tenant id is a 403 (the id is real, and hiding that behind a
	// 404 would make the deterministic id scheme leak instead).
	authJob := func(w http.ResponseWriter, r *http.Request, id string, mutate bool) bool {
		tenant, ok := authTenant(w, r, mutate)
		if !ok {
			return false
		}
		if tenant == "" {
			return true
		}
		view, err := m.Get(id)
		if err != nil {
			return true // let the handler produce its own 404
		}
		if view.Tenant != tenant {
			m.noteAuthDenied()
			writeErr(w, &AuthError{Code: AuthForbidden, Message: fmt.Sprintf("job %q belongs to another tenant", id)})
			return false
		}
		return true
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tenant, ok := authTenant(w, r, true)
		if !ok {
			return
		}
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err := dec.Decode(&spec); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, apiError{Code: "bad_json", Message: err.Error()})
			return
		}
		if tenant != "" {
			// The key decides the tenant. An explicit spec tenant may only
			// confirm it — claiming another tenant's identity is a 403.
			if spec.Tenant != "" && spec.Tenant != tenant {
				m.noteAuthDenied()
				writeErr(w, &AuthError{Code: AuthForbidden, Message: fmt.Sprintf("key is for tenant %q, spec says %q", tenant, spec.Tenant)})
				return
			}
			spec.Tenant = tenant
		}
		view, err := m.Submit(spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusAccepted, view)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		tenant, ok := authTenant(w, r, false)
		if !ok {
			return
		}
		filter := r.URL.Query().Get("tenant")
		if tenant != "" {
			filter = tenant // an authenticated caller lists only its own jobs
		}
		views := m.List(filter)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !authJob(w, r, r.PathValue("id"), false) {
			return
		}
		view, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		if !authJob(w, r, r.PathValue("id"), false) {
			return
		}
		data, err := m.Report(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		// The stored report bytes are served verbatim — no re-marshal — so
		// the byte-identity guarantee survives the HTTP layer.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !authJob(w, r, r.PathValue("id"), true) {
			return
		}
		view, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
	})
	if tel != nil {
		for _, p := range []string{"/metrics", "/healthz", "/readyz", "/status"} {
			mux.Handle("GET "+p, tel)
		}
	}
	return mux
}

// writeErr maps the manager's typed errors onto the HTTP surface. Shed
// responses carry a Retry-After header (whole seconds, rounded up) so
// well-behaved clients back off exactly as the admission layer suggests.
func writeErr(w http.ResponseWriter, err error) {
	var shed *ShedError
	var auth *AuthError
	switch {
	case errors.As(err, &auth):
		httpapi.WriteAuth(w, auth)
	case errors.As(err, &shed):
		status := http.StatusTooManyRequests
		if shed.Code == ShedBreakerOpen || shed.Code == ShedDraining {
			status = http.StatusServiceUnavailable
		}
		body := apiError{Code: shed.Code, Message: shed.Message}
		if shed.RetryAfter > 0 {
			body.RetryAfterMS = shed.RetryAfter.Milliseconds()
			secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		}
		httpapi.WriteError(w, status, body)
	case errors.Is(err, ErrInvalidSpec):
		httpapi.WriteError(w, http.StatusBadRequest, apiError{Code: "invalid_spec", Message: err.Error()})
	case errors.Is(err, store.ErrLogUnavailable):
		httpapi.WriteError(w, http.StatusServiceUnavailable, apiError{Code: "storage_unavailable", Message: err.Error()})
	case errors.Is(err, ErrUnknownJob):
		httpapi.WriteError(w, http.StatusNotFound, apiError{Code: "unknown_job", Message: err.Error()})
	case errors.Is(err, ErrReportNotReady):
		httpapi.WriteError(w, http.StatusConflict, apiError{Code: "report_not_ready", Message: err.Error()})
	default:
		httpapi.WriteError(w, http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()})
	}
}
