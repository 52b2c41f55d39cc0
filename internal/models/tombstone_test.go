package models_test

import (
	"testing"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/models"
	"herdcats/internal/rel"
)

// TestNativeArenaPathTombstone is the tombstone of the native zoo's arena
// fast path: core.ArenaArchitecture, core.CheckWithArena, the
// PPOArena/FencesArena/PropArena methods of every architecture and
// Model.NewEvaluator with its arenaChecker. Production serves compiled cat
// models only, and the hand-pooled path measured no faster than compiled
// cat, so the native models are one plain spec-form implementation: the
// differential oracle. What this test keeps is that none of the second
// implementation comes back — sim.Simulate must check a native model
// through its own Check, not through a per-search evaluator. Their
// outcomes are pinned by internal/cat/testdata/native_outcomes.golden.
func TestNativeArenaPathTombstone(t *testing.T) {
	type arenaArchitecture interface {
		PPOArena(x *events.Execution, ar *rel.Arena) rel.Rel
		FencesArena(x *events.Execution, ar *rel.Arena) rel.Rel
		PropArena(x *events.Execution, ppo, fences rel.Rel, ar *rel.Arena) rel.Rel
	}
	for _, m := range append(models.All(), models.PowerStatic, models.ARMStatic) {
		if _, ok := any(m).(core.EvaluatorProvider); ok {
			t.Errorf("%s: models.Model implements core.EvaluatorProvider again", m.Name())
		}
		if _, ok := m.Arch.(arenaArchitecture); ok {
			t.Errorf("%s: architecture has arena methods again", m.Name())
		}
	}
}
