"""Multi-dataset registry with read-only, content-deduplicated storage.

A single :class:`repro.serve.AuditService` binds one dataset.  A
gateway serving many tenants needs many datasets resident at once.
This module provides that data plane:

* :class:`SharedDataset` holds one named dataset as private read-only
  copies of its arrays.  Forked workers see them through
  copy-on-write, so no per-task pickling is needed;
* :class:`DatasetRegistry` names those datasets, deduplicates storage
  by content (:func:`repro.fingerprint.dataset_fingerprint` — two
  names over equal arrays share one stored copy), and builds
  :class:`repro.api.AuditSession` instances over the stored arrays on
  demand.

Fingerprint keying makes the registry safe as a cache: a dataset
re-registered under the same name with different content gets a fresh
copy and a fresh fingerprint, so
:class:`~repro.serve.AuditService` report caches (which fold the
fingerprint into every key) can never serve stale answers.  Stored
arrays are read-only — an accidental in-place mutation through a
registry array raises instead of silently corrupting every tenant that
shares the content.
"""

from __future__ import annotations

import threading

import numpy as np

from .api import AuditSession
from .faults import fault_point
from .fingerprint import dataset_fingerprint

__all__ = ["SharedDataset", "DatasetRegistry"]


class SharedDataset:
    """One named dataset held as read-only private copies.

    Construction copies each array once and exposes the copies
    read-only (``coords``, ``outcomes``, ``y_true``, ``forecast``), so
    later mutation of the caller's arrays cannot reach the stored
    content.  Forked workers read the copies through copy-on-write.

    Parameters
    ----------
    name : str
        The registry name this dataset was registered under.
    coords, outcomes, y_true, forecast, n_classes
        As in :class:`repro.api.AuditSession`.

    Attributes
    ----------
    name : str
    fingerprint : str
        :func:`repro.fingerprint.dataset_fingerprint` of the stored
        content — the registry's storage-dedup and cache key.
    coords, outcomes, y_true, forecast
        Read-only copies of the stored content.
    n_classes : int or None
    """

    def __init__(
        self,
        name: str,
        coords,
        outcomes,
        y_true=None,
        forecast=None,
        n_classes: int | None = None,
    ):
        self.name = str(name)
        self.n_classes = (
            None if n_classes is None else int(n_classes)
        )
        self._closed = False
        arrays = {
            "coords": np.asarray(coords, dtype=np.float64),
            "outcomes": np.asarray(outcomes),
            "y_true": None if y_true is None else np.asarray(y_true),
            "forecast": (
                None
                if forecast is None
                else np.asarray(forecast, dtype=np.float64)
            ),
        }
        if arrays["coords"].ndim != 2 or arrays["coords"].shape[1] != 2:
            raise ValueError(
                "coords: expected an (n, 2) array, got shape "
                f"{arrays['coords'].shape}"
            )
        for field, arr in arrays.items():
            if arr is None:
                setattr(self, field, None)
                continue
            fault_point("registry.attach")
            stored = arr.copy()
            stored.flags.writeable = False
            setattr(self, field, stored)
        self.fingerprint = dataset_fingerprint(
            self.coords,
            self.outcomes,
            y_true=self.y_true,
            forecast=self.forecast,
            n_classes=self.n_classes,
        )

    def __len__(self) -> int:
        """Number of observations in the dataset."""
        return len(self.coords)

    @property
    def nbytes(self) -> int:
        """Total bytes across the stored arrays."""
        return sum(
            arr.nbytes
            for arr in (
                self.coords,
                self.outcomes,
                self.y_true,
                self.forecast,
            )
            if arr is not None
        )

    def session(self, workers: int | None = None) -> AuditSession:
        """A fresh :class:`repro.api.AuditSession` over the stored
        arrays (no array copies).

        Parameters
        ----------
        workers : int, optional
            Session default worker count for null simulation.

        Returns
        -------
        AuditSession
        """
        if self._closed:
            raise ValueError(
                f"dataset {self.name!r}: already closed"
            )
        return AuditSession(
            self.coords,
            self.outcomes,
            y_true=self.y_true,
            forecast=self.forecast,
            n_classes=self.n_classes,
            workers=workers,
        )

    def close(self) -> None:
        """Drop the stored arrays (idempotent).

        Sessions handed out earlier keep their own references, so
        they finish normally; new sessions are refused.
        """
        self._closed = True
        self.coords = self.outcomes = None
        self.y_true = self.forecast = None


class DatasetRegistry:
    """Named, content-deduplicated store of audit datasets.

    The registry is the gateway's data plane: tenants refer to
    datasets by name, the registry stores each distinct content
    (keyed by :func:`repro.fingerprint.dataset_fingerprint`) exactly
    once, and hands out :class:`repro.api.AuditSession` instances over
    it on demand.  All methods are thread-safe.

    >>> import numpy as np
    >>> reg = DatasetRegistry()
    >>> rng = np.random.default_rng(0)
    >>> ds = reg.register("a", rng.random((10, 2)), np.ones(10))
    >>> reg.register("b", ds.coords, ds.outcomes) is ds  # dedup
    True
    >>> sorted(reg.names())
    ['a', 'b']
    >>> reg.close()
    """

    def __init__(self):
        self._by_name: dict = {}
        self._by_print: dict = {}
        self._lock = threading.Lock()
        self._registered = 0
        self._deduped = 0

    def register(
        self,
        name: str,
        coords,
        outcomes,
        y_true=None,
        forecast=None,
        n_classes: int | None = None,
    ) -> SharedDataset:
        """Store a dataset under ``name`` (thread-safe).

        Content equal to an already-stored dataset (same
        fingerprint) shares its stored copy instead of copying again;
        re-registering an existing name points it at the new content
        (the old content is released once no name refers to it).

        Parameters
        ----------
        name : str
        coords, outcomes, y_true, forecast, n_classes
            As in :class:`repro.api.AuditSession`.

        Returns
        -------
        SharedDataset
        """
        fingerprint = dataset_fingerprint(
            np.asarray(coords, dtype=np.float64),
            np.asarray(outcomes),
            y_true=None if y_true is None else np.asarray(y_true),
            forecast=(
                None
                if forecast is None
                else np.asarray(forecast, dtype=np.float64)
            ),
            n_classes=None if n_classes is None else int(n_classes),
        )
        with self._lock:
            dataset = self._by_print.get(fingerprint)
            if dataset is None:
                dataset = SharedDataset(
                    name,
                    coords,
                    outcomes,
                    y_true=y_true,
                    forecast=forecast,
                    n_classes=n_classes,
                )
                self._by_print[fingerprint] = dataset
            else:
                self._deduped += 1
            previous = self._by_name.get(name)
            self._by_name[str(name)] = dataset
            self._registered += 1
            if previous is not None and previous is not dataset:
                self._release_if_orphaned(previous)
        return dataset

    def _release_if_orphaned(self, dataset: SharedDataset) -> None:
        """Close a dataset no name refers to any more; caller holds
        the lock."""
        if dataset not in self._by_name.values():
            self._by_print.pop(dataset.fingerprint, None)
            dataset.close()

    def get(self, name: str) -> SharedDataset:
        """The dataset registered under ``name``.

        Raises
        ------
        KeyError
            Unknown name (the message lists the known ones).
        """
        with self._lock:
            dataset = self._by_name.get(name)
        if dataset is None:
            known = ", ".join(sorted(self._by_name)) or "(none)"
            raise KeyError(
                f"unknown dataset {name!r}; registered: {known}"
            )
        return dataset

    def by_fingerprint(self, fingerprint: str) -> SharedDataset | None:
        """The dataset with this content fingerprint, or ``None``."""
        with self._lock:
            return self._by_print.get(fingerprint)

    def names(self) -> list:
        """Registered dataset names (unsorted)."""
        with self._lock:
            return list(self._by_name)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is registered."""
        with self._lock:
            return name in self._by_name

    def __len__(self) -> int:
        """Number of registered names (shared content counts once
        per name)."""
        with self._lock:
            return len(self._by_name)

    def session(
        self, name: str, workers: int | None = None
    ) -> AuditSession:
        """A fresh session over the named dataset's stored arrays.

        Parameters
        ----------
        name : str
        workers : int, optional
            As in :meth:`SharedDataset.session`.

        Returns
        -------
        AuditSession
        """
        return self.get(name).session(workers=workers)

    def remove(self, name: str) -> bool:
        """Forget ``name``; release its storage when no other name
        shares the content.

        Returns
        -------
        bool
            Whether the name was registered.
        """
        with self._lock:
            dataset = self._by_name.pop(name, None)
            if dataset is None:
                return False
            self._release_if_orphaned(dataset)
            return True

    def stats(self) -> dict:
        """Registry counters (for the gateway's ``stats()``).

        Returns
        -------
        dict
            ``datasets`` (names), ``unique`` (distinct contents),
            ``points`` / ``bytes`` totals over the distinct contents,
            and ``registered`` / ``deduped`` registration counters.
        """
        with self._lock:
            unique = list(self._by_print.values())
            return {
                "datasets": len(self._by_name),
                "unique": len(unique),
                "points": sum(len(d) for d in unique),
                "bytes": sum(d.nbytes for d in unique),
                "registered": self._registered,
                "deduped": self._deduped,
            }

    def close(self) -> None:
        """Release every stored dataset (idempotent)."""
        with self._lock:
            datasets = list(self._by_print.values())
            self._by_name.clear()
            self._by_print.clear()
        for dataset in datasets:
            dataset.close()
