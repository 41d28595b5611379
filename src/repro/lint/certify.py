"""Zero-copy safety certificates.

``Simulator(zero_copy=True)`` may only skip the defensive send-time deep
copy for programs that provably never write a posted buffer (Z201) and
never mutate a retained received buffer (Z202) — the aliasing pass in
:mod:`repro.lint.aliasing` checks exactly that.  This module packages the
lint verdict as a *certificate*: a JSON document mapping each linted
module to its source hash and its Z-rule cleanliness.  The simulator
consults the certificate at construction; ``covers`` additionally
re-hashes the installed module source so a stale certificate (module
edited after certification) never authorises zero-copy delivery.

The certificate is emitted by ``repro lint --certify`` and committed at
:func:`default_certificate_path`; CI regenerates it and fails when the
committed copy is stale (``repro lint --certify-check``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from .core import lint_paths, iter_python_files

#: certificate file format marker + version
CERT_FORMAT = "repro-zero-copy-certificate"
CERT_VERSION = 1

#: the aliasing rules whose absence certifies a module for zero-copy
ZC_RULES = ("Z201", "Z202")

#: decline reason of a module no certificate speaks for
UNCERTIFIED = "uncertified"


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def module_name_for_file(path):
    """Dotted module name of a source file, derived from the package tree
    (walk up while ``__init__.py`` exists).  None for non-package files."""
    p = Path(path).resolve()
    if p.name == "__init__.py":
        parts = []
        p = p.parent
    else:
        parts = [p.stem]
        p = p.parent
    while (p / "__init__.py").exists():
        parts.append(p.name)
        p = p.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


def _module_source_file(module_name):
    """Source file of an importable module (via sys.modules, then the
    import system) — the file whose hash must match the certificate."""
    mod = sys.modules.get(module_name)
    f = getattr(mod, "__file__", None)
    if f:
        return f
    try:
        import importlib.util

        spec = importlib.util.find_spec(module_name)
    except (ImportError, ValueError):
        return None
    return spec.origin if spec is not None else None


class ZeroCopyCertificate:
    """Per-module zero-copy safety verdicts plus source hashes.

    ``modules`` maps a dotted module name to::

        {"path": str, "sha256": hex, "clean": bool, "findings": [str, ...]}

    ``covers(name)`` is the authorisation check the simulator uses: the
    module must be present, Z-rule clean, and its installed source must
    still hash to the certified value (verified once per process).
    ``decline_reason(name)`` says which of the three failed.
    """

    def __init__(self, modules, env_names=("env",)):
        self.modules = dict(modules)
        self.env_names = tuple(env_names)
        self._verified = {}  # module name -> decline reason ("" = covered)

    def decline_reason(self, module_name):
        """None when ``module_name`` is covered, else why it is not:
        ``"uncertified"`` (no entry, or no source file to hash),
        ``"dirty"`` (Z-rule findings) or ``"stale sha256"`` (edited since
        it was certified)."""
        reason = self._verified.get(module_name)
        if reason is None:
            entry = self.modules.get(module_name)
            if entry is None:
                reason = UNCERTIFIED
            elif not entry.get("clean"):
                reason = "dirty"
            else:
                src = _module_source_file(module_name)
                try:
                    fresh = src is not None and _sha256_file(src) == entry["sha256"]
                except OSError:
                    fresh = False
                reason = "" if fresh else "stale sha256"
            self._verified[module_name] = reason
        return reason or None

    def covers(self, module_name) -> bool:
        return self.decline_reason(module_name) is None

    def clean_modules(self):
        return sorted(m for m, e in self.modules.items() if e.get("clean"))

    def dirty_modules(self):
        return sorted(m for m, e in self.modules.items() if not e.get("clean"))

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "version": CERT_VERSION,
            "rules": list(ZC_RULES),
            "env_names": list(self.env_names),
            "modules": {
                name: dict(entry)
                for name, entry in sorted(self.modules.items())
            },
        }

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_dict(cls, doc) -> "ZeroCopyCertificate":
        if doc.get("format") != CERT_FORMAT:
            raise ValueError(f"not a zero-copy certificate: {doc.get('format')!r}")
        if doc.get("version") != CERT_VERSION:
            raise ValueError(f"unsupported certificate version {doc.get('version')!r}")
        return cls(doc.get("modules", {}), env_names=doc.get("env_names", ("env",)))

    @classmethod
    def load(cls, path) -> "ZeroCopyCertificate":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_certificate(paths=None, env_names=("env",)) -> ZeroCopyCertificate:
    """Lint ``paths`` (default: the installed ``repro`` package) under the
    Z-rules and build a certificate covering every Python file found."""
    if paths is None:
        paths = [Path(__file__).resolve().parents[1]]
    files = iter_python_files(paths)
    findings = lint_paths(paths, env_names=env_names, select=ZC_RULES)
    by_path = {}
    for f in findings:
        by_path.setdefault(str(Path(f.path).resolve()), []).append(f)
    modules = {}
    for fp in files:
        name = module_name_for_file(fp)
        if name is None:
            continue
        hits = by_path.get(str(Path(fp).resolve()), [])
        modules[name] = {
            "path": str(fp),
            "sha256": _sha256_file(fp),
            "clean": not hits,
            "findings": [
                f"{f.rule} {Path(f.path).name}:{f.line}:{f.col} {f.message}"
                for f in hits
            ],
        }
    return ZeroCopyCertificate(modules, env_names=env_names)


def default_certificate_path() -> Path:
    """The committed certificate shipped next to this module."""
    return Path(__file__).resolve().parent / "zero_copy_cert.json"


_DEFAULT_CERT = False  # sentinel: not loaded yet (None = load failed/missing)


def default_certificate():
    """The packaged certificate, loaded once per process (None if absent)."""
    global _DEFAULT_CERT
    if _DEFAULT_CERT is False:
        try:
            _DEFAULT_CERT = ZeroCopyCertificate.load(default_certificate_path())
        except (OSError, ValueError, json.JSONDecodeError):
            _DEFAULT_CERT = None
    return _DEFAULT_CERT


def certificate_decline_reason(module_name, cert=None):
    """None when a certificate authorises zero-copy delivery for
    ``module_name``, else why not (:meth:`ZeroCopyCertificate.decline_reason`).

    ``cert`` may be None (use the packaged default), a path, or a
    :class:`ZeroCopyCertificate`.  Missing/unreadable certificates simply
    decline (the simulator then keeps copying — never an error).
    """
    if cert is None:
        cert = default_certificate()
    elif isinstance(cert, (str, Path)):
        try:
            cert = ZeroCopyCertificate.load(cert)
        except (OSError, ValueError, json.JSONDecodeError):
            cert = None
    if cert is None or module_name is None:
        return UNCERTIFIED
    return cert.decline_reason(module_name)


def certificate_covers(module_name, cert=None) -> bool:
    """Does a certificate authorise zero-copy delivery for ``module_name``?"""
    return certificate_decline_reason(module_name, cert) is None
