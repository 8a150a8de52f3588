package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"accv/internal/core"
	"accv/internal/service"
	"accv/internal/sweep"
)

// TestVetSpellingsEverywhere drives one table of -vet spellings through
// every surface that names a vet policy — the accval flags, the accvd
// suite and sweep request fields, and the sweep unit Spec — so no surface
// can accept a spelling another refuses. All of them parse through
// core.ParseVetPolicy; the table pins its mapping too.
func TestVetSpellingsEverywhere(t *testing.T) {
	srv, err := service.New(service.Config{DefaultParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, v any) int {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		spelling string
		want     core.VetPolicy
		ok       bool
	}{
		{"on", core.VetEnforce, true},
		{"enforce", core.VetEnforce, true},
		{"true", core.VetEnforce, true},
		{"", core.VetEnforce, true},
		{"warn", core.VetWarnOnly, true},
		{"off", core.VetOff, true},
		{"false", core.VetOff, true},
		{"maybe", 0, false},
	} {
		t.Run("vet="+tc.spelling, func(t *testing.T) {
			got, err := core.ParseVetPolicy(tc.spelling)
			if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
				t.Fatalf("ParseVetPolicy(%q) = %v, %v; want %v (ok=%v)", tc.spelling, got, err, tc.want, tc.ok)
			}

			wantStatus, wantHTTP := 0, http.StatusOK
			if !tc.ok {
				wantStatus, wantHTTP = 2, http.StatusBadRequest
			}
			for _, verb := range []string{"run", "sweep"} {
				compiler := map[string]string{"run": "reference", "sweep": "pgi"}[verb]
				_, stderr, status := capture(t, verb, "-compiler", compiler,
					"-family", "host_data", "-iterations", "1", "-vet", tc.spelling)
				if status != wantStatus {
					t.Errorf("accval %s -vet %q: exit %d, want %d (stderr %q)", verb, tc.spelling, status, wantStatus, stderr)
				}
			}

			if code := post("/v1/suite", service.SuiteRequest{
				Family: "host_data", Iterations: 1, Vet: tc.spelling}); code != wantHTTP {
				t.Errorf("POST /v1/suite vet=%q: status %d, want %d", tc.spelling, code, wantHTTP)
			}
			if code := post("/v1/sweep", service.SweepRequest{
				Vendor: "pgi", Family: "host_data", Iterations: 1, Vet: tc.spelling}); code != wantHTTP {
				t.Errorf("POST /v1/sweep vet=%q: status %d, want %d", tc.spelling, code, wantHTTP)
			}

			if err := (sweep.Spec{Vet: tc.spelling}).Validate(); (err == nil) != tc.ok {
				t.Errorf("Spec{Vet: %q}.Validate() = %v, want ok=%v", tc.spelling, err, tc.ok)
			}
		})
	}
}
