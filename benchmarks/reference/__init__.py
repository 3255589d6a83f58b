"""Paper-reference paths kept beside the scripts that regenerate them.

Each module here exists for one figure or ablation and is built from
the public :mod:`repro` API only; the production operator
(:class:`repro.PMEOperator`) has one spread, one interpolate and one
influence form, and none of these paths.

* :mod:`reference.pme_variants` -- on-the-fly spreading and
  interpolation (the Fig. 4 baseline), the Lagrange interpolation of
  the original PME (the Section III.A ablation), and one reciprocal
  pass that runs either interpolation kind;
* :mod:`reference.hybrid` -- the Section IV.E hybrid CPU + coprocessor
  scheduler behind Fig. 9;
* :mod:`reference.oseen` -- the Oseen (Stokeslet) tensor of Ablation D;
* :mod:`reference.chebyshev` -- Fixman's Chebyshev square root, the
  eigenvalue-estimate alternative to block Lanczos (Section III.B) in
  Ablation A.

The scripts in ``benchmarks/`` import this package as ``reference``
(their own directory is first on ``sys.path``); the tests in
``reference/tests`` run with ``python -m pytest -q
benchmarks/reference/tests``.
"""
