(** Goodness-of-fit tests with exact tails.

    The distributional test suite ([test/test_distributional.ml]) needs
    p-values it can threshold tightly, so this module computes the
    chi-square CDF through the regularized incomplete gamma function
    (series + continued fraction, Lanczos log-gamma) and adds the
    two-sample Kolmogorov-Smirnov test with the standard asymptotic
    tail. *)

val log_gamma : float -> float
(** [log_gamma x] is [ln (Gamma x)] for [x > 0] (Lanczos, g = 7;
    absolute error below 1e-13 on the tested range).
    @raise Invalid_argument if [x <= 0]. *)

val gamma_p : a:float -> x:float -> float
(** Regularized lower incomplete gamma [P(a, x)], increasing from 0 to 1
    in [x].  @raise Invalid_argument if [a <= 0] or [x < 0]. *)

val gamma_q : a:float -> x:float -> float
(** [1 - gamma_p], computed directly for accuracy in the upper tail. *)

val chi2_cdf : df:int -> float -> float
(** [chi2_cdf ~df x] is [P(X <= x)] for a chi-square with [df] degrees
    of freedom.  @raise Invalid_argument if [df < 1]. *)

val chi2_p_value : df:int -> float -> float
(** Upper-tail p-value [P(X >= x)]. *)

val chi2_statistic : observed:int array -> expected:float array -> float
(** Pearson statistic [sum (o - e)^2 / e].
    @raise Invalid_argument on length mismatch or a non-positive
    expected cell. *)

val chi2_gof_test :
  observed:int array -> probabilities:float array -> float * int * float
(** [chi2_gof_test ~observed ~probabilities] tests the observed counts
    against cell probabilities (expected = p_i * total); returns
    [(statistic, df, p_value)] with [df = cells - 1].  Callers are
    responsible for pooling cells until every expected count is a few
    balls or more.
    @raise Invalid_argument on mismatch, fewer than 2 cells, or an
    empty sample. *)

val chi2_homogeneity_test : a:int array -> b:int array -> float * int * float
(** Two-sample chi-square homogeneity test on two histograms over the
    same cells: are both drawn from one common cell law?  Returns
    [(statistic, df, p_value)]; cells empty in both samples are
    dropped, [df] = remaining cells - 1.
    @raise Invalid_argument on mismatch, an empty sample, or fewer than
    2 jointly non-empty cells. *)

val ks_statistic : float array -> float array -> float
(** Two-sample Kolmogorov-Smirnov statistic
    [D = sup |F_a - F_b|] over the empirical CDFs.  Inputs are copied,
    not mutated.  @raise Invalid_argument on an empty sample. *)

val ks_q : float -> float
(** Asymptotic Kolmogorov tail
    [Q(lambda) = 2 sum_(j>=1) (-1)^(j-1) exp (-2 j^2 lambda^2)],
    clamped to [0, 1]; [Q(lambda) = 1] for [lambda <= 0]. *)

val ks_test : float array -> float array -> float * float
(** [ks_test a b] returns [(d, p)] where [p] is the asymptotic
    two-sample p-value with Stephens' finite-sample correction.  Valid
    for continuous-ish samples of a couple dozen points or more; heavy
    ties make it conservative. *)
