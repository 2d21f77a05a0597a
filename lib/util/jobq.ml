(* A bounded multi-tenant work queue with fair (round-robin) dequeue.

   Each tenant owns a FIFO; [pop] serves non-empty tenants in round-robin
   order from a persistent cursor, so a tenant flooding the queue cannot
   starve the others — it only deepens its own FIFO until its quota
   rejects further pushes.  Admission control is two-level: a global
   [capacity] bounds total queued items (backpressure for everyone) and a
   per-tenant [quota] bounds any single tenant's share of it.

   All operations are thread-safe ([Mutex] + [Condition]); [pop] blocks
   until an item is available or the queue is closed.  Fairness is
   deterministic: given the same sequence of pushes and pops, the same
   items come out in the same order, whatever threads performed them. *)

type 'a tq = { tenant : string; q : 'a Queue.t }

type 'a t = {
  capacity : int;
  quota : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable tenants : 'a tq list;  (* round-robin ring, registration order *)
  mutable cursor : int;  (* next ring position to serve *)
  mutable total : int;
  mutable closed : bool;
}

type reject = Queue_full | Tenant_quota

let reject_name = function
  | Queue_full -> "queue-full"
  | Tenant_quota -> "tenant-quota"

let create ?(capacity = 64) ?(quota = 16) () =
  if capacity < 1 then invalid_arg "Jobq.create: capacity must be >= 1";
  if quota < 1 then invalid_arg "Jobq.create: quota must be >= 1";
  {
    capacity;
    quota;
    mu = Mutex.create ();
    nonempty = Condition.create ();
    tenants = [];
    cursor = 0;
    total = 0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let find_tenant t tenant = List.find_opt (fun tq -> tq.tenant = tenant) t.tenants

let push t ~tenant v =
  locked t (fun () ->
      if t.closed then Error Queue_full
      else if t.total >= t.capacity then Error Queue_full
      else
        let tq =
          match find_tenant t tenant with
          | Some tq -> tq
          | None ->
              let tq = { tenant; q = Queue.create () } in
              (* Append keeps ring order stable: the cursor keeps pointing
                 at the same tenant it was about to serve. *)
              t.tenants <- t.tenants @ [ tq ];
              tq
        in
        if Queue.length tq.q >= t.quota then Error Tenant_quota
        else begin
          Queue.push v tq.q;
          t.total <- t.total + 1;
          Condition.signal t.nonempty;
          Ok ()
        end)

(* Serve the first non-empty tenant at or after the cursor, then advance
   the cursor past it — one item per tenant per ring revolution. *)
let take_fair t =
  let n = List.length t.tenants in
  if n = 0 || t.total = 0 then None
  else begin
    let ring = Array.of_list t.tenants in
    let rec go i =
      if i >= n then None
      else
        let at = (t.cursor + i) mod n in
        let tq = ring.(at) in
        if Queue.is_empty tq.q then go (i + 1)
        else begin
          let v = Queue.pop tq.q in
          t.total <- t.total - 1;
          t.cursor <- (at + 1) mod n;
          Some v
        end
    in
    go 0
  end

let pop t =
  locked t (fun () ->
      let rec wait () =
        match take_fair t with
        | Some v -> Some v
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.mu;
              wait ()
            end
      in
      wait ())

let remove t pred =
  locked t (fun () ->
      let found = ref None in
      List.iter
        (fun tq ->
          if !found = None then begin
            let keep = Queue.create () in
            Queue.iter
              (fun v ->
                if !found = None && pred v then found := Some v
                else Queue.push v keep)
              tq.q;
            if !found <> None then begin
              Queue.clear tq.q;
              Queue.transfer keep tq.q
            end
          end)
        t.tenants;
      if !found <> None then t.total <- t.total - 1;
      !found)

let length t = locked t (fun () -> t.total)

let tenants t =
  locked t (fun () -> List.map (fun tq -> (tq.tenant, Queue.length tq.q)) t.tenants)

let capacity t = t.capacity
let quota t = t.quota

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
