package obs

import (
	"strings"
	"testing"
)

// paperStages is the paper pipeline's declared vocabulary, spelled out
// here rather than imported from core (obs cannot depend on core).
var paperStages = []Stage{StageDetect, StageFrames, StageUBF, StageIFF, StageGrouping}

// validateVocab is the check cli.Session runs at Close: schema
// validation, then the vocabulary contract on the replayed aggregate.
func validateVocab(trace string, declared []Stage) (*Metrics, error) {
	sum, err := ValidateTrace(strings.NewReader(trace))
	if err != nil {
		return sum, err
	}
	return sum, sum.CheckVocab(declared)
}

// TestValidateTraceVocabRejects is the regression test for the PR-8
// vocabulary contract: ValidateTrace accepts any known stage/counter
// spelling, so a detector counting under a detector-owned stage it never
// declared — "candidates" under the paper vocabulary — used to pass
// validation silently. CheckVocab must refuse it.
func TestValidateTraceVocabRejects(t *testing.T) {
	trace := `{"ev":"count","stage":"candidates","counter":"local_tests","value":3,"seq":0,"ts_ns":1}` + "\n"

	// The plain validator accepts the spelling — that is the hole.
	if _, err := ValidateTrace(strings.NewReader(trace)); err != nil {
		t.Fatalf("ValidateTrace must accept a well-formed candidates counter: %v", err)
	}
	// The vocabulary-aware validator closes it.
	if _, err := validateVocab(trace, paperStages); err == nil {
		t.Fatal("counter under an undeclared detector-owned stage passed the vocabulary check")
	} else if !strings.Contains(err.Error(), "candidates") {
		t.Fatalf("diagnostic does not name the offending stage: %v", err)
	}

	// Undeclared spans and rounds under detector-owned stages fail too.
	span := `{"ev":"begin","stage":"candidates","seq":0,"ts_ns":1}` + "\n" +
		`{"ev":"end","stage":"candidates","wall_ns":5,"seq":1,"ts_ns":2}` + "\n"
	if _, err := validateVocab(span, paperStages); err == nil {
		t.Fatal("span under an undeclared detector-owned stage passed")
	}
	round := `{"ev":"round_begin","stage":"candidates","round":0,"seq":0,"ts_ns":1}` + "\n" +
		`{"ev":"round_end","stage":"candidates","round":0,"stats":{"sent":0,"delivered":0,"dropped":0,"duplicated":0,"delayed":0,"active":0},"seq":1,"ts_ns":2}` + "\n"
	if _, err := validateVocab(round, paperStages); err == nil {
		t.Fatal("round under an undeclared detector-owned stage passed")
	}
}

// TestValidateTraceVocabAccepts: declared detector stages and shared
// infrastructure stages (serve, cell, incremental) stay admissible — the
// contract scopes only the detector-owned stages.
func TestValidateTraceVocabAccepts(t *testing.T) {
	trace := `{"ev":"count","stage":"ubf","counter":"balls_tested","value":7,"seq":0,"ts_ns":1}` + "\n" +
		`{"ev":"begin","stage":"serve","seq":1,"ts_ns":2}` + "\n" +
		`{"ev":"end","stage":"serve","wall_ns":5,"seq":2,"ts_ns":3}` + "\n" +
		`{"ev":"count","stage":"incremental","counter":"dirty_ubf_nodes","value":2,"seq":3,"ts_ns":4}` + "\n"
	sum, err := validateVocab(trace, paperStages)
	if err != nil {
		t.Fatalf("in-vocabulary trace rejected: %v", err)
	}
	if sum.Total(StageUBF, CtrBallsTested) != 7 {
		t.Fatalf("summary lost the counter: %+v", sum)
	}

	// The candidates stage becomes admissible once declared (a
	// flooding-competitor vocabulary, or the multi-detector union).
	union := append(append([]Stage{}, paperStages...), StageCandidates)
	cand := `{"ev":"count","stage":"candidates","counter":"local_tests","value":3,"seq":0,"ts_ns":1}` + "\n"
	if _, err := validateVocab(cand, union); err != nil {
		t.Fatalf("declared candidates stage rejected: %v", err)
	}
}
