"""EXC01 fixture: silently swallowed broad exceptions."""


def risky() -> None:
    raise ValueError("boom")


def silent() -> None:
    try:
        risky()
    except Exception:  # line 11: EXC01 (swallowed)
        pass


def bare() -> None:
    try:
        risky()
    except:  # line 18: EXC01 (bare except)  # noqa: E722
        pass


def records() -> str:
    try:
        risky()
    except Exception as error:  # fine: binding is used
        return f"failed: {error}"
    return "ok"


def reraises() -> None:
    try:
        risky()
    except Exception:  # fine: re-raises
        raise


def commented() -> None:
    try:
        risky()
    except Exception:  # analyze: ok(EXC01): a comment cannot waive — line 40: EXC01
        pass
