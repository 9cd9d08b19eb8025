import conebarriers

PUBLIC = {
    "BarrierWorkspace", "ConeDescriptor", "ConeFamily", "ConePoint",
    "ConjugateResult", "DAMPED_THRESHOLD", "DEFAULT_EPS", "ExperimentConfig",
    "IterationStats", "NewtonStatus", "NewtonTrace", "NonPositiveDefiniteError",
    "NotInteriorError", "PowerParams", "RootResult", "Svd", "SymEigen",
    "barrier_parameter", "cholesky_solve", "conjugate_gradient", "conjugate_value",
    "default_initial_point", "dual_in_interior", "generic_conjugate_gradient",
    "gradient", "hessian_apply", "hessian_dense", "in_interior", "inner",
    "inverse_hessian_apply", "lemma_h", "newton_raphson",
    "pack", "render_table", "residual", "run_grid", "sample_dual_point", "svd",
    "sym_eigen", "unpack", "value", "wright_omega",
}


def test_public_names_are_pinned():
    # the package republishes its modules' __all__ lists; a name added to or
    # dropped from one of them changes the public API
    assert len(conebarriers.__all__) == len(PUBLIC) == 42
    assert set(conebarriers.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(conebarriers, name)


def test_module_level_names_stay_importable():
    # out of the public API, but still importable from their modules
    from conebarriers.cones import PackedLayout  # noqa: F401
    from conebarriers.experiment import DEFAULT_CONES, MATRIX_CONES
    from conebarriers.linalg import cholesky_factor  # noqa: F401

    assert DEFAULT_CONES == ["log", "hpower", "hgeom", "rpower", "rgeom", "linf"]
    assert MATRIX_CONES == ["logdet", "rtdet", "lspec"]
