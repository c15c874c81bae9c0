"""Runs keep no iterates, so a test that reads a run's points records them
through what the run already calls once a step, by wrapping it here:

* ``gap_fn`` sees x^ag_{t+1} and ``bregman_fn`` sees x_{t+1}, for t = 1 .. T;
* ``noise_fn(delta, x)`` sees delta_t (argument 0) and x_t (argument 1);
* the oracle's ``sample_gradient`` sees each query point.

With the trace's ``start`` (x_1 = x^ag_1), the gap and Bregman records give
every iterate and average of the run.
"""

import numpy as np


class Recording:
    """``fn`` that also keeps, by batch row, the point its argument ``arg``
    holds at each call; ``fn=None`` is a gap or Bregman function whose values
    are zero. A ``(d,)`` point is row 0. ``take(keep)`` narrows ``fn`` (when
    it has a ``take``) to the rows left and shares the store, as a batch
    run's hooks must when rows leave early."""

    def __init__(self, fn=None, arg=0, store=None, rows=None):
        self.fn, self.arg, self.rows = fn, arg, rows
        self.store = {} if store is None else store

    def __call__(self, *args):
        points = np.atleast_2d(args[self.arg])
        rows = range(len(points)) if self.rows is None else self.rows.tolist()
        for i, point in zip(rows, points):
            self.store.setdefault(i, []).append(point.copy())
        if self.fn is None:
            return 0.0 if np.ndim(args[0]) == 1 else np.zeros(len(args[0]))
        return self.fn(*args)

    def __getitem__(self, i):
        """Row i's points, stacked in call order."""
        return np.array(self.store[i])

    def _rows(self, keep):
        return np.asarray(keep) if self.rows is None else self.rows[keep]

    def take(self, keep):
        fn = self.fn.take(keep) if hasattr(self.fn, "take") else self.fn
        return Recording(fn, self.arg, self.store, self._rows(keep))


class RecordingOracle(Recording):
    """``oracle`` whose ``sample_gradient`` also keeps each query point."""

    def __init__(self, oracle, store=None, rows=None):
        super().__init__(oracle.sample_gradient, 0, store, rows)
        self.oracle, self.mean_gradient = oracle, oracle.mean_gradient

    def sample_gradient(self, x, rng=None):
        return self(x, rng)

    def take(self, keep):
        return RecordingOracle(self.oracle.take(keep), self.store, self._rows(keep))
