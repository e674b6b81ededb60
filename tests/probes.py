"""Test-side views of a network's or a run's state: digests for freeze
contracts and the phase sequence of a training log."""

import hashlib

from chroma.checkpoint import read_checkpoint


def state_digest(net) -> bytes:
    """Hash of all parameters and statistics of ``net``."""
    h = hashlib.sha256()
    params = net.parameters()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    stats = net.stats()
    for name in sorted(stats):
        h.update(stats[name].mean.tobytes())
        h.update(stats[name].var.tobytes())
    return h.digest()


def branch_digest(path, prefix: str) -> bytes:
    """Hash of the records of one branch (``cn`` or ``va``) in the
    checkpoint at ``path``."""
    records = read_checkpoint(path).params
    h = hashlib.sha256()
    for name in sorted(records):
        if name.startswith(prefix + "."):
            h.update(name.encode())
            h.update(records[name].tobytes())
    return h.digest()


def phases_seen(log) -> list[str]:
    """The phases of ``log``'s records, consecutive repeats collapsed."""
    out = []
    for r in log.records:
        if not out or out[-1] != r.phase:
            out.append(r.phase)
    return out
