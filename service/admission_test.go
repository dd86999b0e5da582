package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ising-machines/saim/model"
)

// wireModel decodes a model from its wire JSON.
func wireModel(t *testing.T, doc string) *model.Model {
	t.Helper()
	m := model.New()
	if err := m.UnmarshalJSON([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	return m
}

// declaredOnly is a model of n variables and no terms.
func declaredOnly(n int) string {
	return fmt.Sprintf(`{"families":[{"name":"x","n":%d}]}`, n)
}

// slackHeavy is a model of ten variables under k constraints x0 ≤ 1e18,
// each of which compiles 60 slack columns.
func slackHeavy(k int) string {
	cons := make([]string, k)
	for i := range cons {
		cons[i] = fmt.Sprintf(`{"name":"c%d","sense":"<=","expr":{"lin":[{"v":0,"w":1}]},"bound":1e18}`, i)
	}
	return `{"families":[{"name":"x","n":10}],"objective":{"lin":[{"v":1,"w":-1}]},"constraints":[` + strings.Join(cons, ",") + `]}`
}

// TestSubmitRefusesOverBudgetModels pins the admission bound: a model
// whose dense compile would pass MaxCompileBytes, by its declared
// variables or by its slack columns alone, is refused before anything is
// fingerprinted or queued, and the budget's edge falls between 6,688 and
// 6,689 columns.
func TestSubmitRefusesOverBudgetModels(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	for _, tc := range []struct {
		name    string
		doc     string
		columns int
	}{
		{"declared", declaredOnly(100_000), 100_000},
		{"slack", slackHeavy(112), 10 + 112*60},
	} {
		_, err := mgr.Submit(Request{Model: wireModel(t, tc.doc), Solver: "saim"})
		var tooLarge *ModelTooLargeError
		if !errors.As(err, &tooLarge) {
			t.Fatalf("%s: Submit = %v, want a *ModelTooLargeError", tc.name, err)
		}
		if tooLarge.Columns != tc.columns {
			t.Fatalf("%s: refused at %d columns, want %d", tc.name, tooLarge.Columns, tc.columns)
		}
	}
	if st := mgr.Stats(); st.Submitted != 0 || st.Queued != 0 {
		t.Fatalf("refused submissions reached the queue: %+v", st)
	}

	// The edge, on a closed manager: a model within the budget passes the
	// bound and is refused at the queue instead, so nothing here compiles.
	closed := New(Config{Workers: 1})
	if err := closed.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		doc  string
		over bool
	}{
		{declaredOnly(6688), false},
		{declaredOnly(6689), true},
		{slackHeavy(111), false}, // 6,670 columns
		{slackHeavy(112), true},  // 6,730 columns
	} {
		_, err := closed.Submit(Request{Model: wireModel(t, tc.doc), Solver: "saim"})
		var tooLarge *ModelTooLargeError
		if over := errors.As(err, &tooLarge); over != tc.over || !over && !errors.Is(err, ErrClosed) {
			t.Fatalf("model of %d columns: Submit = %v, want over budget %v", wireModel(t, tc.doc).Columns(), err, tc.over)
		}
	}
}
