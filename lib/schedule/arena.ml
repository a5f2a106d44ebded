open Ph_pauli
open Ph_pauli_ir

(* Structure-of-arrays block arena: every per-block feature the
   windowed schedulers touch, laid out in flat arrays indexed by arena
   position so the Algorithm-1 inner loops run allocation-free over
   contiguous memory instead of chasing block records and string
   pointers.

   Layout (m blocks over n qubits, [words] = [Bits.words_for n] plane
   words per row, all row-major):

     head_x/head_z : int array  — m×words, first term's bitplanes
     tail_x/tail_z : int array  — m×words, last term's bitplanes
     active        : int array  — m×words, union of the terms' supports
     depth         : int array  — m, estimated block depth
     blocks        : Block.t array — the term-sorted blocks, arena order

   Arena order is the scheduler's sort order, produced by an
   int-permutation sort over the original positions (comparator plus
   original-index tie-break ≡ [List.stable_sort] of the records), so
   the window scans walk ascending, cache-dense rows.

   Scratch-reuse contract: [cand] / [prev] / [touched] / [chosen] /
   [load] and the [par_*] reduction slots are preallocated once per
   arena and reused by every round — the owner is the single scheduling
   call that built the arena, rounds never overlap, and a round only
   reads scratch it wrote itself ([prev] carries the previous round's
   chosen indices, the one intentional cross-round carry).  Parallel
   chunk bodies are restricted to pure reads of the feature arrays plus
   writes to their own [par_ov]/[par_pos] slot; everything else —
   liveness, scratch, perf counters — is touched only by the
   coordinating domain, which keeps counters byte-identical at any
   --sched-jobs.  The chunk body itself is [par_body], a closure built
   once per arena that reads its bounds from [par_visited]/[par_chunks],
   so a parallel dispatch allocates nothing.  The padding fit test's
   conjuncts ([depth], [rows_disjoint], [max_load]) are pure reads: they
   bump no counter and write no scratch, so [pad] evaluates them
   cheapest first without changing any output or counter. *)

type t = {
  m : int;
  words : int;
  blocks : Block.t array;
  head_x : int array;
  head_z : int array;
  tail_x : int array;
  tail_z : int array;
  active : int array;
  depth : int array;
  (* liveness *)
  alive : Bytes.t;
  mutable n_alive : int;
  mutable first_alive : int;
  (* reusable scratch (see contract above) *)
  cand : int array;
  prev : int array;
  mutable n_prev : int;
  touched : int array;
  mutable n_touched : int;
  chosen : int array;
  mutable n_chosen : int;
  load : int array;
  par_ov : int array;
  par_pos : int array;
  mutable par_visited : int;
  mutable par_chunks : int;
  mutable par_body : int -> unit;
}

type order = Active_desc | Lex

let size a = a.m
let words a = a.words
let block a i = a.blocks.(i)
let n_alive a = a.n_alive
let first_alive a = a.first_alive

(* ---------- fused leader scan kernel ---------- *)

(* First maximum of the leader affinity over candidate positions
   [lo, hi), written to chunk slot [k].  A candidate's affinity is the
   best operator overlap between any previous-layer tail string and its
   head string — [Pauli_string.overlap tail head] computed word by word
   on the planes: equal x, equal z, and non-identity.  Strict [>]
   against the -1 sentinel keeps the FIRST position attaining the
   maximum.  One loop nest serves every plane width; the body reads the
   feature arrays and writes only its own [par_pos]/[par_ov] slot, so
   it may run on a worker domain. *)
let leader_chunk a k lo hi =
  let words = a.words and n_prev = a.n_prev in
  let cand = a.cand and prev = a.prev in
  let tx = a.tail_x and tz = a.tail_z and hx = a.head_x and hz = a.head_z in
  let best_ov = ref (-1) and best_pos = ref (-1) in
  for p = lo to hi - 1 do
    let ho = Array.unsafe_get cand p * words in
    let score = ref 0 in
    for t = 0 to n_prev - 1 do
      let tp = Array.unsafe_get prev t * words in
      let ov = ref 0 in
      for w = 0 to words - 1 do
        let x1 = Array.unsafe_get tx (tp + w) and z1 = Array.unsafe_get tz (tp + w) in
        let x2 = Array.unsafe_get hx (ho + w) and z2 = Array.unsafe_get hz (ho + w) in
        ov :=
          !ov + Bits.popcount (lnot (x1 lxor x2) land lnot (z1 lxor z2) land (x1 lor z1))
      done;
      if !ov > !score then score := !ov
    done;
    if !score > !best_ov then begin
      best_ov := !score;
      best_pos := p
    end
  done;
  Array.unsafe_set a.par_pos k !best_pos;
  Array.unsafe_set a.par_ov k !best_ov

(* Chunk [k] of the current parallel scan: the ascending partition
   [k·visited/chunks, (k+1)·visited/chunks). *)
let par_chunk a k =
  let v = a.par_visited and c = a.par_chunks in
  leader_chunk a k (k * v / c) ((k + 1) * v / c)

let build ?rank ~order prog =
  let src = Program.blocks prog in
  let n = Program.n_qubits prog in
  let words = Bits.words_for n in
  let orig = Array.of_list (List.map (Block.sort_terms_lex ?rank) src) in
  let m = Array.length orig in
  (* Features in original order first; the permutation sort below needs
     the active lengths, and filling arena rows through [perm] costs one
     blit per row. *)
  let o_head = Array.map Block.representative orig in
  let o_tail = Array.map Block.last_term orig in
  let o_active = Array.make (m * words) 0 in
  let o_depth = Array.make (max 1 m) 0 in
  let o_alen = Array.make (max 1 m) 0 in
  Array.iteri
    (fun i b ->
      let pos = i * words in
      let d = ref 0 in
      List.iter
        (fun (t : Pauli_term.t) ->
          Pauli_string.or_support_words t.Pauli_term.str o_active pos;
          let w = Pauli_string.weight t.Pauli_term.str in
          d := !d + if w = 0 then 0 else (2 * (w - 1)) + 1)
        (Block.terms b);
      o_depth.(i) <- !d;
      let alen = ref 0 in
      for k = 0 to words - 1 do
        alen := !alen + Bits.popcount o_active.(pos + k)
      done;
      o_alen.(i) <- !alen)
    orig;
  let perm = Array.init m Fun.id in
  (* Original-index tie-break makes the in-place sort equivalent to the
     stable record sort it replaces. *)
  (match order with
  | Active_desc ->
    Array.sort
      (fun i j ->
        let c = Int.compare o_alen.(j) o_alen.(i) in
        if c <> 0 then c
        else
          let c = Pauli_term.compare_lex ?rank o_head.(i) o_head.(j) in
          if c <> 0 then c else Int.compare i j)
      perm
  | Lex ->
    Array.sort
      (fun i j ->
        let c = Pauli_term.compare_lex ?rank o_head.(i) o_head.(j) in
        if c <> 0 then c else Int.compare i j)
      perm);
  let head_x = Array.make (m * words) 0 in
  let head_z = Array.make (m * words) 0 in
  let tail_x = Array.make (m * words) 0 in
  let tail_z = Array.make (m * words) 0 in
  let active = Array.make (m * words) 0 in
  let depth = Array.make (max 1 m) 0 in
  let blocks = Array.map (fun i -> orig.(i)) perm in
  Array.iteri
    (fun i oi ->
      let pos = i * words in
      Pauli_string.blit_planes o_head.(oi).Pauli_term.str head_x head_z pos;
      Pauli_string.blit_planes o_tail.(oi).Pauli_term.str tail_x tail_z pos;
      Array.blit o_active (oi * words) active pos words;
      depth.(i) <- o_depth.(oi))
    perm;
  let a =
    {
      m;
      words;
      blocks;
      head_x;
      head_z;
      tail_x;
      tail_z;
      active;
      depth;
      alive = Bytes.make (max 1 m) '\001';
      n_alive = m;
      first_alive = 0;
      cand = Array.make (max 1 m) 0;
      prev = Array.make (max 1 m) 0;
      n_prev = 0;
      touched = Array.make (max 1 m) 0;
      n_touched = 0;
      chosen = Array.make (max 1 m) 0;
      n_chosen = 0;
      load = Array.make (max 1 n) 0;
      par_ov = Array.make Ph_exec.Team.max_jobs 0;
      par_pos = Array.make Ph_exec.Team.max_jobs 0;
      par_visited = 0;
      par_chunks = 1;
      par_body = ignore;
    }
  in
  a.par_body <- par_chunk a;
  a

(* ---------- liveness ---------- *)

let take a i =
  Bytes.unsafe_set a.alive i '\000';
  a.n_alive <- a.n_alive - 1;
  while
    a.first_alive < a.m && Bytes.unsafe_get a.alive a.first_alive = '\000'
  do
    a.first_alive <- a.first_alive + 1
  done

(* Collect up to [window] live arena indices (ascending from
   [first_alive]) into [cand]; returns the count.  The window-truncation
   accounting matches the legacy [scan_alive] loop exactly: a truncated
   scan is one that filled the window with at least one position left
   unexamined. *)
let collect a ~window =
  let visited = ref 0 and i = ref a.first_alive in
  while !i < a.m && !visited < window do
    if Bytes.unsafe_get a.alive !i = '\001' then begin
      Array.unsafe_set a.cand !visited !i;
      incr visited
    end;
    incr i
  done;
  if !visited >= window && !i < a.m then
    Ph_perf.Counter.bump Ph_perf.Counter.sched_window_truncations;
  !visited

let candidate a p = a.cand.(p)

(* ---------- padding row kernels (allocation-free, pure) ---------- *)

let rec bits_max load b base acc =
  if b = 0 then acc
  else
    let low = b land -b in
    let q = base + Bits.popcount (low - 1) in
    bits_max load (b land (b - 1)) base (max acc (Array.unsafe_get load q))

let rec words_max active load o words k acc =
  if k = words then acc
  else
    words_max active load o words (k + 1)
      (bits_max load (Array.unsafe_get active (o + k)) (k * Bits.word_bits) acc)

(* Maximum accumulated [load] over the active qubits of block [i] — the
   arena form of [Qubit_set.max_over]. *)
let max_load a i = words_max a.active a.load (i * a.words) a.words 0 0

let rec bits_set load b base v =
  if b <> 0 then begin
    let low = b land -b in
    Array.unsafe_set load (base + Bits.popcount (low - 1)) v;
    bits_set load (b land (b - 1)) base v
  end

let set_load a i v =
  let o = i * a.words in
  for k = 0 to a.words - 1 do
    bits_set a.load (Array.unsafe_get a.active (o + k)) (k * Bits.word_bits) v
  done

let rec disjoint_loop active o1 o2 k =
  k < 0
  || (Array.unsafe_get active (o1 + k) land Array.unsafe_get active (o2 + k) = 0
      && disjoint_loop active o1 o2 (k - 1))

(* Support disjointness of blocks [i] and [j] — the arena form of
   [Qubit_set.disjoint]. *)
let rows_disjoint a i j =
  disjoint_loop a.active (i * a.words) (j * a.words) (a.words - 1)

(* ---------- scratch stacks ---------- *)

let reset_chosen a = a.n_chosen <- 0

let push_chosen a i =
  a.chosen.(a.n_chosen) <- i;
  a.n_chosen <- a.n_chosen + 1

let chosen_blocks a =
  let rec go k acc =
    if k < 0 then acc else go (k - 1) (a.blocks.(a.chosen.(k)) :: acc)
  in
  go (a.n_chosen - 1) []

(* Promote this round's chosen indices to the next round's tail set. *)
let commit_prev a =
  Array.blit a.chosen 0 a.prev 0 a.n_chosen;
  a.n_prev <- a.n_chosen

let n_prev a = a.n_prev

let set_prev1 a i =
  a.prev.(0) <- i;
  a.n_prev <- 1

(* ---------- padding ---------- *)

(* Padding blocks may stack on the same qubits as each other (their
   depths then add up per qubit) but never on the leader's; a candidate
   fits while its qubit region's accumulated depth stays within the
   leader's estimated depth.  The load vector is dense per-qubit; only
   the slots touched this round are reset afterwards.

   The fit test runs its conjuncts cheapest first: the block's own depth
   against the budget (one array read), then disjointness from the
   leader (one AND per plane word), and only then the per-qubit load
   walk over the candidate's set bits.  Loads are non-negative, so
   [max_load + depth <= budget] implies the first conjunct and the
   reordering accepts exactly the same blocks.  No conjunct bumps a
   counter or writes scratch: a test that short-circuits leaves no
   trace, which keeps layers and every counter row identical to the
   unordered test. *)
let pad a ~leader ~visited =
  let budget = a.depth.(leader) in
  let padded = ref 0 in
  a.n_touched <- 0;
  for p = 0 to visited - 1 do
    let i = Array.unsafe_get a.cand p in
    let d = a.depth.(i) in
    if d <= budget && rows_disjoint a leader i then begin
      let load = max_load a i + d in
      if load <= budget then begin
        set_load a i load;
        a.touched.(a.n_touched) <- i;
        a.n_touched <- a.n_touched + 1;
        push_chosen a i;
        incr padded;
        take a i
      end
    end
  done;
  for k = 0 to a.n_touched - 1 do
    set_load a a.touched.(k) 0
  done;
  a.n_touched <- 0;
  !padded

(* ---------- fused leader scan ---------- *)

(* Dispatching a parallel scan costs a few mutex hand-offs (~µs); below
   this many word-operations of scoring work the sequential scan is
   faster, and bit-identity makes the choice invisible. *)
let par_threshold = 1 lsl 14

(* First-maximum leader position over the [visited] collected
   candidates; [score_work] estimates the scan cost in word-operations
   and gates the parallel path.  Determinism argument: chunks partition
   the position range in ascending order; each chunk reports its local
   first maximum, and the ascending-order reduction with a
   strict-greater test picks the globally first maximum — the same
   position the sequential scan (one chunk over [0, visited)) picks,
   independent of [jobs] and of which domain ran which chunk.

   Dispatch allocates nothing: the chunk body is the arena's prebuilt
   [par_body] closure reading its bounds from [par_visited]/
   [par_chunks], the team handle is preallocated, and the release runs
   from an exception match, which needs no closure — so the
   coordinating domain's allocation counters do not depend on
   [jobs]. *)
let leader_argmax a ~jobs ~visited ~score_work =
  if visited = 0 then -1
  else
    let team =
      if jobs <= 1 || visited < 2 || score_work < par_threshold then None
      else Ph_exec.Team.try_acquire jobs
    in
    match team with
    | None ->
      leader_chunk a 0 0 visited;
      a.par_pos.(0)
    | Some team ->
      let chunks = min (Ph_exec.Team.jobs team) visited in
      a.par_visited <- visited;
      a.par_chunks <- chunks;
      (match Ph_exec.Team.run team ~chunks a.par_body with
      | () -> Ph_exec.Team.release team
      | exception e ->
        Ph_exec.Team.release team;
        raise e);
      Ph_perf.Counter.bump Ph_perf.Counter.sched_par_scans;
      let best_ov = ref (-1) and best_pos = ref (-1) in
      for k = 0 to chunks - 1 do
        if a.par_ov.(k) > !best_ov then begin
          best_ov := a.par_ov.(k);
          best_pos := a.par_pos.(k)
        end
      done;
      !best_pos

(* Charge one scan's worth of overlap-kernel work to the coordinating
   domain: [scores] candidate scores were computed, each folding
   [per_score] tail/head string overlaps of [words] words — exactly the
   counts the legacy per-call [Pauli_string.overlap] bumps produced. *)
let charge_overlap_kernel a ~scores ~per_score =
  let calls = scores * per_score in
  Ph_perf.Counter.add Ph_perf.Counter.pauli_overlap calls;
  Ph_perf.Counter.add Ph_perf.Counter.pauli_words (calls * a.words);
  Ph_perf.Counter.add Ph_perf.Counter.pauli_popcounts (calls * a.words)
