package main

import (
	"encoding/json"
	"fmt"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the length of the measured phase the driver asks for.
const runSeconds = 12

func specJSON() benchmarkJSON {
	out := benchmarkJSON{
		Command:    []string{"bash", "bench/bench.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, jsonLayer{m.Name, m.Unit, m.Better})
	}
	return out
}

// specMain prints BENCHMARK.json from the tables in spec.go:
//
//	go run -C bench . spec > BENCHMARK.json
func specMain() error {
	data, err := json.MarshalIndent(specJSON(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
