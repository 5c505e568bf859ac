package kperiodic

import (
	"context"

	"kiter/internal/csdf"
	"kiter/internal/mcr"
)

// freshArena is an arena that never came from the pool.
func freshArena() *arena { return &arena{mg: mcr.New(0), solver: mcr.NewSolver()} }

// KIterFresh is KIterCtx on a fresh arena: the no-pool reference.
func KIterFresh(ctx context.Context, g *csdf.Graph, opt Options) (*KIterResult, error) {
	return kiter(ctx, g, opt, freshArena())
}

// EvaluateKFresh is EvaluateKCtx on a fresh arena.
func EvaluateKFresh(ctx context.Context, g *csdf.Graph, K []int64, opt Options) (*Evaluation, error) {
	return evaluateK(ctx, g, K, opt, freshArena())
}
