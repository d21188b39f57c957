// Package queuetheory provides closed-form queueing results — M/M/1, M/M/c
// (Erlang C), and M/G/1 (Pollaczek–Khinchine) — used to cross-validate the
// discrete-event simulator: a machine reduced to a single FCFS service
// center must reproduce these formulas, which pins down the correctness of
// the arrival, dispatch, and busy-until machinery that every experiment in
// this repository rests on.
//
// Only tests use it: it is the reference internal/machine's theory_test.go
// compares a queue-only machine against.
package queuetheory

import (
	"fmt"
	"math"
)

// MM1 returns the mean wait-in-queue (Wq) and mean sojourn time (W) for an
// M/M/1 queue with arrival rate lambda and service rate mu (same time unit).
func MM1(lambda, mu float64) (wq, w float64, err error) {
	rho := lambda / mu
	if rho >= 1 {
		return 0, 0, fmt.Errorf("queuetheory: M/M/1 unstable (rho=%v)", rho)
	}
	wq = rho / (mu - lambda)
	return wq, wq + 1/mu, nil
}

// ErlangC returns the probability an arriving job waits in an M/M/c queue
// (the Erlang C formula).
func ErlangC(lambda, mu float64, c int) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("queuetheory: need at least one server")
	}
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return 0, fmt.Errorf("queuetheory: M/M/c unstable (rho=%v)", rho)
	}
	// Sum_{k=0}^{c-1} a^k/k! computed in log space for stability.
	sum := 0.0
	term := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	top := term * a / float64(c) / (1 - rho)
	return top / (sum + top), nil
}

// MMc returns the mean wait-in-queue and sojourn time for an M/M/c queue.
func MMc(lambda, mu float64, c int) (wq, w float64, err error) {
	pw, err := ErlangC(lambda, mu, c)
	if err != nil {
		return 0, 0, err
	}
	rho := lambda / (mu * float64(c))
	wq = pw / (float64(c)*mu - lambda)
	_ = rho
	return wq, wq + 1/mu, nil
}

// MG1 returns the mean wait-in-queue and sojourn time for an M/G/1 queue via
// Pollaczek–Khinchine: Wq = λ·E[S²] / (2(1−ρ)).
func MG1(lambda, meanS, secondMomentS float64) (wq, w float64, err error) {
	rho := lambda * meanS
	if rho >= 1 {
		return 0, 0, fmt.Errorf("queuetheory: M/G/1 unstable (rho=%v)", rho)
	}
	wq = lambda * secondMomentS / (2 * (1 - rho))
	return wq, wq + meanS, nil
}

// ExpSecondMoment returns E[S²] for an exponential with the given mean.
func ExpSecondMoment(mean float64) float64 { return 2 * mean * mean }

// DetSecondMoment returns E[S²] for a deterministic service time.
func DetSecondMoment(mean float64) float64 { return mean * mean }

// LognormalSecondMoment returns E[S²] for a lognormal parameterized by its
// mean and the sigma of the underlying normal (matching dist.Lognormal).
func LognormalSecondMoment(mean, sigma float64) float64 {
	// E[X] = exp(mu + s²/2), E[X²] = exp(2mu + 2s²)
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(2*mu + 2*sigma*sigma)
}

// BimodalSecondMoment returns E[S²] for the two-point distribution used by
// dist.Bimodal.
func BimodalSecondMoment(lo, hi, pLo float64) float64 {
	return pLo*lo*lo + (1-pLo)*hi*hi
}

// MMcP99Wait approximates the 99th percentile of wait-in-queue for M/M/c:
// conditional on waiting, the wait is exponential with rate cμ−λ, so
// P99(Wq) = max(0, ln(100·Pwait) / (cμ−λ)).
func MMcP99Wait(lambda, mu float64, c int) (float64, error) {
	pw, err := ErlangC(lambda, mu, c)
	if err != nil {
		return 0, err
	}
	rate := float64(c)*mu - lambda
	if 100*pw <= 1 {
		return 0, nil
	}
	return math.Log(100*pw) / rate, nil
}
