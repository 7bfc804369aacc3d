from setuptools import Extension, setup

# The compiled twin of _kernel.py, from hand-written C.  optional=True: where
# no compiler is found the build skips it and the package runs on the pure
# kernel.  -ffp-contract=off keeps the compiler from fusing a multiply and an
# add into one rounding, which would break bit-identity with the pure kernel.
setup(
    ext_modules=[
        Extension(
            "ietkhinchin._speedups",
            ["src/ietkhinchin/_speedups.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
