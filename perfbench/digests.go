package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// digestFile holds the dates digests recorded for the reference runs of
// each workload: the Fig. 5 reference rows and SoC reference runs (whose
// dates do not depend on the payload seed) by row label, and the anchor
// campaign's points by canonical point hash. Decoupled and sharded runs
// are gated against their reference run of the same pass instead.
type digestFile struct {
	Fig5     map[string]string `json:"fig5"`
	SoC      map[string]string `json:"soc"`
	Campaign map[string]string `json:"campaign"`
}

//go:embed digests.json
var digestsJSON []byte

var recordedDigests = func() digestFile {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return d
}()

func writeDigests(path string, d digestFile) error {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
