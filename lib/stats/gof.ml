(* Goodness-of-fit machinery: exact-tail chi-square via the regularized
   incomplete gamma function, and the two-sample Kolmogorov-Smirnov test
   with the asymptotic tail.  This is the repo's one implementation of
   both tests: every statistical gate thresholds its p-values, which are
   good to ~1e-10 in the df and sample ranges we test. *)

(* Lanczos approximation (g = 7, 9 coefficients), |error| < 1e-13 for
   real x > 0. *)
let lanczos =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let log_gamma x =
  if x <= 0. then invalid_arg "Gof.log_gamma: x <= 0";
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    let rec lg x =
      if x < 0.5 then
        log (Float.pi /. sin (Float.pi *. x)) -. lg (1. -. x)
      else
        let x = x -. 1. in
        let a = ref lanczos.(0) in
        for i = 1 to 8 do
          a := !a +. (lanczos.(i) /. (x +. float_of_int i))
        done;
        let t = x +. 7.5 in
        (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
    in
    lg x
  else
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Regularized lower incomplete gamma P(a, x) by the standard split:
   series for x < a + 1, continued fraction (modified Lentz) for the
   complement otherwise.  Both converge in O(sqrt a) iterations. *)
let max_iter = 500
let eps = 3e-15
let tiny = 1e-300

let gamma_p_series a x =
  let ap = ref a and sum = ref (1. /. a) and del = ref (1. /. a) in
  let i = ref 0 in
  (try
     while !i < max_iter do
       incr i;
       ap := !ap +. 1.;
       del := !del *. x /. !ap;
       sum := !sum +. !del;
       if Float.abs !del < Float.abs !sum *. eps then raise Exit
     done
   with Exit -> ());
  !sum *. exp ((a *. log x) -. x -. log_gamma a)

let gamma_q_cf a x =
  let b = ref (x +. 1. -. a) and c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 0 in
  (try
     while !i < max_iter do
       incr i;
       let an = -.float_of_int !i *. (float_of_int !i -. a) in
       b := !b +. 2.;
       d := (an *. !d) +. !b;
       if Float.abs !d < tiny then d := tiny;
       c := !b +. (an /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < eps then raise Exit
     done
   with Exit -> ());
  !h *. exp ((a *. log x) -. x -. log_gamma a)

let gamma_p ~a ~x =
  if a <= 0. then invalid_arg "Gof.gamma_p: a <= 0";
  if x < 0. then invalid_arg "Gof.gamma_p: x < 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series a x
  else 1. -. gamma_q_cf a x

let gamma_q ~a ~x =
  if a <= 0. then invalid_arg "Gof.gamma_q: a <= 0";
  if x < 0. then invalid_arg "Gof.gamma_q: x < 0";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series a x
  else gamma_q_cf a x

(* Chi-square with [df] degrees of freedom is Gamma(df/2, 2). *)
let chi2_cdf ~df x =
  if df < 1 then invalid_arg "Gof.chi2_cdf: df < 1";
  if x <= 0. then 0. else gamma_p ~a:(float_of_int df /. 2.) ~x:(x /. 2.)

let chi2_p_value ~df x =
  if df < 1 then invalid_arg "Gof.chi2_p_value: df < 1";
  if x <= 0. then 1. else gamma_q ~a:(float_of_int df /. 2.) ~x:(x /. 2.)

let chi2_statistic ~observed ~expected =
  let k = Array.length observed in
  if k = 0 || Array.length expected <> k then
    invalid_arg "Gof.chi2_statistic: length mismatch or empty";
  let s = ref 0. in
  for i = 0 to k - 1 do
    let e = expected.(i) in
    if e <= 0. then invalid_arg "Gof.chi2_statistic: non-positive expected cell";
    let d = float_of_int observed.(i) -. e in
    s := !s +. (d *. d /. e)
  done;
  !s

let chi2_gof_test ~observed ~probabilities =
  let k = Array.length observed in
  if k < 2 || Array.length probabilities <> k then
    invalid_arg "Gof.chi2_gof_test: need >= 2 matching cells";
  let n = Array.fold_left ( + ) 0 observed in
  if n <= 0 then invalid_arg "Gof.chi2_gof_test: empty sample";
  let expected =
    Array.map (fun p -> p *. float_of_int n) probabilities
  in
  let stat = chi2_statistic ~observed ~expected in
  let df = k - 1 in
  (stat, df, chi2_p_value ~df stat)

(* Two-sample chi-square homogeneity test on a pair of histograms over
   the same cells: under the null both rows are multinomial draws from a
   common cell law; the statistic is the contingency-table chi-square
   with (k - 1) degrees of freedom.  Cells empty in BOTH samples carry
   no information and are dropped (they would divide by zero). *)
let chi2_homogeneity_test ~a ~b =
  let k = Array.length a in
  if k = 0 || Array.length b <> k then
    invalid_arg "Gof.chi2_homogeneity_test: length mismatch or empty";
  let na = Array.fold_left ( + ) 0 a and nb = Array.fold_left ( + ) 0 b in
  if na <= 0 || nb <= 0 then
    invalid_arg "Gof.chi2_homogeneity_test: empty sample";
  let fa = float_of_int na and fb = float_of_int nb in
  let total = fa +. fb in
  let stat = ref 0. and cells = ref 0 in
  for i = 0 to k - 1 do
    let ci = float_of_int (a.(i) + b.(i)) in
    if ci > 0. then begin
      incr cells;
      let ea = ci *. fa /. total and eb = ci *. fb /. total in
      let da = float_of_int a.(i) -. ea and db = float_of_int b.(i) -. eb in
      stat := !stat +. (da *. da /. ea) +. (db *. db /. eb)
    end
  done;
  if !cells < 2 then
    invalid_arg "Gof.chi2_homogeneity_test: fewer than 2 non-empty cells";
  let df = !cells - 1 in
  (!stat, df, chi2_p_value ~df !stat)

(* Two-sample Kolmogorov-Smirnov.  D = sup_x |F_a(x) - F_b(x)| over the
   two empirical CDFs; inputs are copied and sorted. *)
let ks_statistic a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Gof.ks_statistic: empty sample";
  let a = Array.copy a and b = Array.copy b in
  Array.sort compare a;
  Array.sort compare b;
  let fa = float_of_int na and fb = float_of_int nb in
  let i = ref 0 and j = ref 0 and d = ref 0. in
  while !i < na && !j < nb do
    let x = if a.(!i) <= b.(!j) then a.(!i) else b.(!j) in
    while !i < na && a.(!i) <= x do incr i done;
    while !j < nb && b.(!j) <= x do incr j done;
    let diff = Float.abs ((float_of_int !i /. fa) -. (float_of_int !j /. fb)) in
    if diff > !d then d := diff
  done;
  !d

(* Asymptotic KS tail Q(lambda) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2
   lambda^2); alternating and fast-decaying, 100 terms is far beyond
   double precision. *)
let ks_q lambda =
  if lambda <= 0. then 1.
  else begin
    let s = ref 0. in
    (try
       for j = 1 to 100 do
         let t =
           exp (-2. *. float_of_int (j * j) *. lambda *. lambda)
         in
         let signed = if j land 1 = 1 then t else -.t in
         s := !s +. signed;
         if t < 1e-18 then raise Exit
       done
     with Exit -> ());
    let q = 2. *. !s in
    if q < 0. then 0. else if q > 1. then 1. else q
  end

let ks_test a b =
  let d = ks_statistic a b in
  let na = float_of_int (Array.length a) and nb = float_of_int (Array.length b) in
  let ne = na *. nb /. (na +. nb) in
  let sqrt_ne = sqrt ne in
  (* Stephens' small-sample correction to the asymptotic argument. *)
  let lambda = (sqrt_ne +. 0.12 +. (0.11 /. sqrt_ne)) *. d in
  (d, ks_q lambda)
