(* One mutex covers the queue and the completion list: the contention
   is one vCPU against a few workers at region-formation granularity. *)
type ('a, 'b) t = {
  mu : Mutex.t;
  cv : Condition.t;
  depth : int;
  mutable pending : 'a list; (* FIFO, newest last *)
  mutable finished : ('a * ('b, exn) result) list; (* completion order, newest last *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

(* Worker main loop: pop a job, run it without the lock, hand the
   outcome back under the lock. *)
let rec worker p work =
  Mutex.lock p.mu;
  while p.pending = [] && not p.stopping do
    Condition.wait p.cv p.mu
  done;
  match p.pending with
  | [] -> Mutex.unlock p.mu (* stopping *)
  | job :: rest ->
    p.pending <- rest;
    Mutex.unlock p.mu;
    let outcome = try Ok (work job) with exn -> Error exn in
    Mutex.lock p.mu;
    p.finished <- p.finished @ [ (job, outcome) ];
    Mutex.unlock p.mu;
    worker p work

let create ~workers ~depth work =
  let p =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      depth;
      pending = [];
      finished = [];
      stopping = false;
      domains = [];
    }
  in
  p.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker p work));
  p

let submit p job =
  Mutex.lock p.mu;
  let room = List.length p.pending < p.depth in
  if room then begin
    p.pending <- p.pending @ [ job ];
    Condition.broadcast p.cv
  end;
  Mutex.unlock p.mu;
  room

let cancel p doomed =
  Mutex.lock p.mu;
  let cancelled, kept = List.partition doomed p.pending in
  p.pending <- kept;
  Mutex.unlock p.mu;
  List.length cancelled

let take p n =
  Mutex.lock p.mu;
  let k = n (List.length p.finished) in
  let taken = List.filteri (fun i _ -> i < k) p.finished in
  p.finished <- List.filteri (fun i _ -> i >= k) p.finished;
  Mutex.unlock p.mu;
  taken

let stop p =
  Mutex.lock p.mu;
  p.stopping <- true;
  p.pending <- [];
  Condition.broadcast p.cv;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains
