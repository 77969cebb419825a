package core

import (
	"fmt"

	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/units"
)

// RetryPolicy bounds how stubbornly the runtime re-submits failed device
// work. Backoff is charged on the virtual clock, so the latency cost of
// resilience shows up in every experiment that enables faults. Every
// production path runs DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	MaxAttempts int
	// Backoff is the delay before the second attempt; each further attempt
	// multiplies it by Multiplier, clamped to MaxBackoff.
	Backoff    units.Duration
	Multiplier float64
	MaxBackoff units.Duration
	// Deadline bounds one command's submit-to-completion latency. A
	// completion arriving later counts as a timeout: the driver abandons
	// the command (ErrDeadline) and may retry. Zero disables the check.
	Deadline units.Duration
}

// DefaultRetryPolicy matches NVMe driver practice: a few attempts with
// millisecond-scale exponential backoff and a generous per-command
// deadline (device-side work for one MDTS chunk is ~100 µs).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		Backoff:     1 * units.Millisecond,
		Multiplier:  2,
		MaxBackoff:  50 * units.Millisecond,
		Deadline:    100 * units.Millisecond,
	}
}

// next advances a backoff value one step.
func (p RetryPolicy) next(backoff units.Duration) units.Duration {
	b := units.Duration(float64(backoff) * p.Multiplier)
	if b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// expired reports whether a command whose device time started at start
// and that completed at done blew the per-command deadline.
func (p RetryPolicy) expired(start, done units.Time) bool {
	return p.Deadline > 0 && done.Sub(start) > p.Deadline
}

// SubmitRetry submits one command under a retry policy: retryable failure
// statuses and deadline overruns are re-submitted (with backoff charged on
// the virtual clock) up to the attempt cap; terminal statuses return
// immediately. makeCtx builds a fresh command context per attempt so
// stateful sinks never see a failed attempt's bytes twice. op is the
// system's resolved MINIT or READ operation (sysMetrics), which names the
// command in errors and carries its latency handles.
func (d *Driver) SubmitRetry(ready units.Time, op *retryOp, p RetryPolicy, makeCtx func() *ssd.CmdContext) (nvme.Completion, units.Time, error) {
	backoff := p.Backoff
	t := ready
	var lastErr error
	// outcome attributes the whole retried operation's latency: "ok" for a
	// clean first attempt, "recovered" when a retry saved it, "failed" when
	// the policy gave up or hit a terminal status.
	outcome := func(attempt int, err error) {
		o := outcomeOK
		switch {
		case err != nil:
			o = outcomeFailed
		case attempt > 1:
			o = outcomeRecovered
		}
		op.lat[o].Observe(int64(t), int64(t.Sub(ready)))
	}
	// record chains failures across attempts with %w, so a media error on
	// attempt 1 stays classifiable even when the retry fails differently
	// (e.g. the retired block turned the LBA unmappable).
	record := func(cur error) {
		if lastErr != nil {
			cur = fmt.Errorf("%w (earlier attempt: %w)", cur, lastErr)
		}
		lastErr = cur
	}
	for attempt := 1; ; attempt++ {
		// Submit and wait separately (identical timing to Submit) so the
		// pending record's span is at hand for tail-sampling flags.
		pend, t2 := d.SubmitAsync(t, makeCtx())
		comp, t2 := d.Wait(t2, pend)
		t = t2
		switch {
		// The deadline is checked against device completion time
		// (Submitted→Done), matching the batch-flush path: host-side reap
		// cycles after the device finished are scheduling noise, not
		// command latency, and must not tip a command over its deadline.
		case p.expired(pend.Submitted, pend.Done):
			d.sys.metrics.timeouts.Add(int64(t), 1)
			d.sys.tracer.Flag(pend.Span)
			record(fmt.Errorf("core: %s took %v, past its %v deadline: %w",
				op.name, pend.Done.Sub(pend.Submitted), p.Deadline, ErrDeadline))
		case comp.Status.Err() != nil:
			d.sys.tracer.Flag(pend.Span)
			record(statusErr(op.name, comp.Status))
			if !comp.Status.Retryable() {
				outcome(attempt, lastErr)
				return comp, t, lastErr
			}
		default:
			outcome(attempt, nil)
			return comp, t, nil
		}
		if attempt >= p.MaxAttempts {
			err := fmt.Errorf("core: %s gave up after %d attempts: %w", op.name, attempt, lastErr)
			outcome(attempt, err)
			return comp, t, err
		}
		d.sys.metrics.retries.Add(int64(t), 1)
		t = t.Add(backoff)
		backoff = p.next(backoff)
	}
}
