(* [with_dir f] runs [f] on a fresh temporary directory path (not yet
   created), then removes the directory and its files if [f] made it. *)
let with_dir f =
  let dir = Filename.temp_file "captive_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)
