package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// MaxResultBody bounds a pushed result file. Shard files are JSON cell
// sets; 64 MiB is far beyond any current grid and protects the
// coordinator from a runaway client.
const MaxResultBody = 64 << 20

// Handler returns the coordinator's HTTP API. All endpoints live under
// /api/v1; the protocol is specified in docs/COORDINATOR.md.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/workers", c.handleRegister)
	mux.HandleFunc("POST /api/v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/lease", c.handleLease)
	mux.HandleFunc("POST /api/v1/runs", c.handleSubmit)
	mux.HandleFunc("GET /api/v1/runs", c.handleRuns)
	mux.HandleFunc("GET /api/v1/runs/{id}", c.handleRun)
	mux.HandleFunc("GET /api/v1/runs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /api/v1/runs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /api/v1/runs/{id}/units/{unit}/result", c.handlePush)
	mux.HandleFunc("POST /api/v1/runs/{id}/units/{unit}/fail", c.handleFail)
	mux.HandleFunc("GET /api/v1/status", c.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownRun):
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, fmt.Errorf("coord: read body: %w", err))
		return nil, false
	}
	if int64(len(data)) > limit {
		http.Error(w, fmt.Sprintf("coord: body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return data, true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, MaxJSONBody)
	if !ok {
		return
	}
	req, err := DecodeRegister(data)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, c.Register(req.Name))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !okID(id) {
		httpError(w, fmt.Errorf("coord: bad worker id"))
		return
	}
	if err := c.Heartbeat(id); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, MaxJSONBody)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(data)
	if err != nil {
		httpError(w, err)
		return
	}
	lease, err := c.Lease(req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, LeaseResponse{Wire: WireVersion, Lease: lease})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, MaxJSONBody)
	if !ok {
		return
	}
	req, err := DecodeSubmit(data)
	if err != nil {
		httpError(w, err)
		return
	}
	id, err := c.Submit(*req)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, SubmitResponse{Wire: WireVersion, RunID: id})
}

func (c *Coordinator) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, RunsResponse{Wire: WireVersion, Runs: c.RunStatuses()})
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	st, err := c.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	path, err := c.ResultPath(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	// Stream the file rather than buffering it: the declared length lets
	// the client read it into one exact-size buffer.
	f, err := os.Open(path)
	if err != nil {
		httpError(w, fmt.Errorf("coord: %w", err))
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		httpError(w, fmt.Errorf("coord: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
	io.Copy(w, f)
}

func (c *Coordinator) handlePush(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("id")
	unitID, err := strconv.Atoi(r.PathValue("unit"))
	if err != nil || unitID < 0 {
		httpError(w, fmt.Errorf("coord: bad unit id"))
		return
	}
	workerID := r.URL.Query().Get("worker")
	attempt, aerr := strconv.Atoi(r.URL.Query().Get("attempt"))
	if !okID(workerID) || aerr != nil || attempt < 1 || attempt > maxAttempt {
		httpError(w, fmt.Errorf("coord: bad worker/attempt query"))
		return
	}
	data, ok := readBody(w, r, MaxResultBody)
	if !ok {
		return
	}
	resp, err := c.Push(runID, unitID, workerID, attempt, data)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, resp)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("id")
	unitID, err := strconv.Atoi(r.PathValue("unit"))
	if err != nil || unitID < 0 {
		httpError(w, fmt.Errorf("coord: bad unit id"))
		return
	}
	data, ok := readBody(w, r, MaxJSONBody)
	if !ok {
		return
	}
	req, err := DecodeFail(data)
	if err != nil {
		httpError(w, err)
		return
	}
	if err := c.ReportFail(runID, unitID, *req); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, c.StatusText())
}

// handleEvents streams a run's progress events as server-sent events:
// the full history first, then live events until the run reaches its
// terminal state or the client goes away. Each event is one
// `data: <json>` line holding a dispatch.ProgressEvent.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	history, ch, cancel, err := c.Subscribe(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	send := func(e any) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}
	for _, e := range history {
		if !send(e) {
			return
		}
	}
	if ch == nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if !send(e) {
				return
			}
		}
	}
}
