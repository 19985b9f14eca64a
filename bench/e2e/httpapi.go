package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// newHTTPClient returns the harness's one client: all load comes from one
// process over at most two connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// jobOutcome is one submission as its client saw it.
type jobOutcome struct {
	job     job
	latency time.Duration // POST sent → final response body read
	view    server.JobView
	bytes   []byte // result in the CLI's -json rendering
	err     error
}

// submitAndWait POSTs the job and, unless the POST already answered it,
// long-polls GET /v1/jobs/{id}?wait with a plain (non-streaming) wait.
func submitAndWait(hc *http.Client, base string, j job) jobOutcome {
	o := jobOutcome{job: j}
	body, _ := json.Marshal(map[string]interface{}{"experiment": j.Experiment, "params": j.Params}) // strings and numbers only: cannot fail
	start := time.Now()
	env, err := doEnvelope(hc, http.MethodPost, base+"/v1/jobs", body)
	if err == nil && env.Job != nil && env.Job.State != server.StateDone && env.Job.State != server.StateFailed {
		env, err = doEnvelope(hc, http.MethodGet, base+"/v1/jobs/"+env.Job.ID+"?wait=120s", nil)
	}
	o.latency = time.Since(start)
	switch {
	case err != nil:
		o.err = err
	case env.Job == nil:
		o.err = fmt.Errorf("%s: envelope without job", j.key())
	case env.Job.State != server.StateDone:
		o.view = *env.Job
		o.err = fmt.Errorf("%s: job %s ended %s: %s", j.key(), env.Job.ID, env.Job.State, env.Job.Error)
	default:
		o.view = *env.Job
		o.bytes, o.err = cliRendering(env.Result)
	}
	return o
}

func doEnvelope(hc *http.Client, method, url string, body []byte) (server.Envelope, error) {
	var env server.Envelope
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return env, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return env, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, fmt.Errorf("%s %s: status %d: %v", method, url, resp.StatusCode, err)
	}
	if resp.StatusCode >= 300 {
		msg := string(raw)
		if env.Error != nil {
			msg = env.Error.Code + ": " + env.Error.Message
		}
		return env, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, msg)
	}
	return env, nil
}

// scrapeMetrics reads a daemon's flat "name value" /metrics exposition.
func scrapeMetrics(hc *http.Client, base string) (map[string]int64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// pollEvery is the readiness polling period behind setup_s.
const pollEvery = 5 * time.Millisecond

// pollUntil calls ok every pollEvery until it reports true, or fails
// after 30 s.
func pollUntil(what string, ok func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

func healthy(hc *http.Client, base string) bool {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func aliveWorkers(hc *http.Client, base string) int {
	resp, err := hc.Get(base + "/v1/workers")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var fleet struct {
		Workers []struct {
			Alive bool `json:"alive"`
		} `json:"workers"`
	}
	if json.NewDecoder(resp.Body).Decode(&fleet) != nil {
		return 0
	}
	n := 0
	for _, w := range fleet.Workers {
		if w.Alive {
			n++
		}
	}
	return n
}
