"""Connections, curvature, covering lifts and generalized Wilson lines on the noncommutative torus.

Submodules load on first use (PEP 562): ``import nctorus`` runs no
submodule, and ``nctorus.wilson`` or ``nctorus.coverings`` imports
``coverings`` (and what it imports) when first read.  A one-shot CLI run so
loads only the modules its command uses: ``infinite-wilson`` never loads
``connections``, ``coverings`` or ``forms``.
"""

#: Each submodule and the public names it defines; ``__all__`` is every name listed here.
_EXPORTS = {
    "algebra": (
        "TorusElement", "TorusParams", "apply_auto", "apply_derivation",
        "lam", "mono", "one", "u", "v", "zero",
    ),
    "forms": ("TwoForm", "MatrixForm"),
    "connections": (
        "Connection", "TransportOperator", "curvature_form", "curvature_commutator",
        "is_flat", "transport", "check_transport_axioms",
    ),
    "reports": ("TransportAxiomReport",),
    "coverings": (
        "CoveringSpec", "DeckElement", "ClosedPathReport", "project", "deck_act",
        "classify_path", "wilson", "check_path_independence",
    ),
    "errors": (
        "NCTorusError", "ParamMismatch", "RankMismatch", "NonConstantConnection",
        "NotFlat", "ZeroWeight", "PathNotAssociated",
    ),
    "infinitecover": (),
    "cli": (),
    "scenarios": (),
}  # fmt: skip
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, imported on first read (then a plain attribute), or a public name read from its home."""
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports (importlib.import_module's is not timed);
    # it binds the submodule in this namespace
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    # a public name is read from its home each time, so a wrapper patched in there is what callers get
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
