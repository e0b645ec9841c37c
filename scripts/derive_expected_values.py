"""One-off symbolic derivation of the fixture closed forms.

Independent of the numerical code: the swept surfaces of the translation
families are parametrized symbolically and the constant ambient forms are
integrated with sympy.  Running the script prints the expected flux values;
the test suite imports `derive` and compares against the fixture catalog.
`mclean_identity(n)` checks, for n = 1, 2, 3, the identity behind the metric
of the almost Calabi-Yau mode: with the unit-length Omega / rho it holds for
the Kaehler metric g itself, and a rescaled metric breaks it unless n = 2.

Conventions: ambient coordinates (x1, y1, x2, y2), symplectic form
dx1^dy1 + dx2^dy2, top form (dx1 + i dy1)^(dx2 + i dy2), cylinder of width w
along x1 and unit circumference along x2, moving with amplitude a in y1.
The relative cycle runs from the x1=0 boundary to the x1=w boundary with
increasing x1; the absolute cycle is the circumference with decreasing x2
(the ordering that makes the duality pairing the identity matrix).
"""

import sympy as sym
from sympy.combinatorics import Permutation


def derive(width=sym.Rational(1, 2), amplitude=sym.Rational(3, 10)):
    t, s = sym.symbols("t s")
    w, a = width, amplitude

    # Relative flux over the axial cycle: surface (t, s) -> f(t, gamma(s)),
    # gamma the axial path x1 = w s, and the motion y1 = a t.
    surf_rel = sym.Matrix([w * s, a * t, 0, 0])
    dt_ = surf_rel.diff(t)
    ds_ = surf_rel.diff(s)

    def omega(u, v):
        return (u[0] * v[1] - u[1] * v[0]) + (u[2] * v[3] - u[3] * v[2])

    rf = sym.integrate(sym.integrate(omega(dt_, ds_), (s, 0, 1)), (t, 0, 1))

    # Dual flux over the circumference: surface (t, q) -> f(t, sigma(q)),
    # sigma the circumference x2 = -q after the pairing normalization.
    q = sym.Symbol("q")
    surf_abs = sym.Matrix([0, a * t, -q, 0])
    dtb = surf_abs.diff(t)
    dqb = surf_abs.diff(q)

    def im_top(u, v):
        # Im[(dx1 + i dy1)^(dx2 + i dy2)] = dx1^dy2 + dy1^dx2
        return (u[0] * v[3] - u[3] * v[0]) + (u[1] * v[2] - u[2] * v[1])

    sf = sym.integrate(sym.integrate(im_top(dtb, dqb), (q, 0, 1)), (t, 0, 1))

    # L2 norm of the unit tangent form: |i_{dy1} omega|^2 integrated over the
    # flat cylinder of area w; the contraction is -dx1, of unit length.
    l2 = w

    return {"rf": sym.simplify(rf), "sf": sym.simplify(sf), "l2": sym.simplify(l2)}


def mclean_identity(n: int) -> dict:
    """McLean's identity on flat R^n in C^n with Omega = rho dz_1 ^ ... ^ dz_n.

    L is the real n-plane (the x-axes) and v = sum_j a_j d/dy_j a normal
    field.  Both sides are (n-1)-forms on L, compared on the coordinate
    (n-1)-frames e_J, J = {1..n} without j.  The star is solved from its
    definition alpha ^ *beta = h(alpha, beta) vol_h for the metric h = c g|_L,
    so the script does not assume the conformal weight it derives.

    Returns `sign`, the constant s with *_g i_v omega|_L = s i_v Im(Omega/rho)|_L,
    and `rescaled`, the ratio of the two sides for h = rho^(-2/n) g divided by s.
    """
    rho = sym.Symbol("rho", positive=True)
    c = sym.Symbol("c", positive=True)
    a = sym.symbols(f"a1:{n + 1}", real=True)
    unit = sym.eye(2 * n)
    x_axis = [unit[:, 2 * j] for j in range(n)]
    v = sum((a[j] * unit[:, 2 * j + 1] for j in range(n)), sym.zeros(2 * n, 1))

    def im_omega_hat(*vectors):
        dz = sym.Matrix(n, n, lambda k, col: vectors[col][2 * k] + sym.I * vectors[col][2 * k + 1])
        Omega = rho * dz.det()  # Omega = rho dz_1 ^ ... ^ dz_n on the frame
        return sym.im(sym.expand(Omega / rho))

    def omega(u, w):
        return sum(u[2 * k] * w[2 * k + 1] - u[2 * k + 1] * w[2 * k] for k in range(n))

    rest = [[k for k in range(n) if k != j] for j in range(n)]
    contraction = [im_omega_hat(v, *(x_axis[k] for k in rest[j])) for j in range(n)]
    alpha = [omega(v, x_axis[j]) for j in range(n)]  # i_v omega|_L = sum alpha_j dx_j
    star = sym.symbols(f"s1:{n + 1}")  # *alpha = sum_j star_j dx_{rest j}
    # dx_k ^ dx_{rest j} vanishes unless k = j, where it is the sign of (j, rest j) times dx_1..n
    wedge_sign = [Permutation([j] + rest[j]).signature() for j in range(n)]
    equations = [wedge_sign[k] * star[k] - alpha[k] / c * c ** sym.Rational(n, 2)
                 for k in range(n)]
    solved = sym.solve(equations, star, dict=True)[0]

    def ratio(scale):
        ratios = {sym.simplify(solved[star[j]].subs(c, scale) / contraction[j]) for j in range(n)}
        assert len(ratios) == 1, ratios
        return ratios.pop()

    sign = ratio(1)
    return {"sign": sign, "rescaled": sym.simplify(ratio(rho ** sym.Rational(-2, n)) / sign)}


if __name__ == "__main__":
    values = derive()
    print("relative flux over axial cycle:", values["rf"], "=", float(values["rf"]))
    print("dual flux over circumference:  ", values["sf"], "=", float(values["sf"]))
    print("L2 Gram of unit tangent:       ", values["l2"], "=", float(values["l2"]))
    for n in (1, 2, 3):
        mclean = mclean_identity(n)
        print(f"n = {n}: *_g i_v omega = {mclean['sign']} i_v Im(Omega/rho) on L; "
              f"with rho^(-2/n) g the ratio is {mclean['rescaled']}")
